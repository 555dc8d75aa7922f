package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 1.05)
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i))
	}
	if h.N() != 1000 {
		t.Fatalf("N = %d, want 1000", h.N())
	}
	if !almostEqual(h.Mean(), 500.5, 1e-9) {
		t.Errorf("Mean = %v, want 500.5", h.Mean())
	}
	if h.Max() != 1000 || h.Min() != 1 {
		t.Errorf("extrema %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(1e-6, 1.02)
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 50000)
	for i := range xs {
		// Lognormal-ish latencies.
		xs[i] = math.Exp(rng.NormFloat64()*0.5 + 2)
		h.Record(xs[i])
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := xs[int(q*float64(len(xs)))-1]
		got := h.Quantile(q)
		rel := math.Abs(got-exact) / exact
		if rel > 0.03 {
			t.Errorf("q=%v: got %v, exact %v, rel err %.3f", q, got, exact, rel)
		}
	}
}

func TestHistogramEdgeQuantiles(t *testing.T) {
	h := NewHistogram(1, 1.1)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Record(5)
	h.Record(50)
	if got := h.Quantile(0); got != 5 {
		t.Errorf("q=0 → %v, want min 5", got)
	}
	if got := h.Quantile(1); got != 50 {
		t.Errorf("q=1 → %v, want max 50", got)
	}
}

func TestHistogramNonPositiveClamped(t *testing.T) {
	h := NewHistogram(1, 1.1)
	h.Record(0)
	h.Record(-3)
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
	// Both land in the lowest bucket; quantile must not panic.
	_ = h.Quantile(0.5)
}

func TestHistogramPercentilesHelper(t *testing.T) {
	h := NewHistogram(1, 1.01)
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	ps := h.Percentiles(50, 95, 99)
	if len(ps) != 3 {
		t.Fatalf("len = %d", len(ps))
	}
	if ps[0] > ps[1] || ps[1] > ps[2] {
		t.Errorf("percentiles not monotone: %v", ps)
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1.1) },
		func() { NewHistogram(-1, 1.1) },
		func() { NewHistogram(1, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHistogramStringNonEmpty(t *testing.T) {
	h := NewHistogram(1, 1.1)
	h.Record(2)
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestReservoirExactBelowCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReservoir(100, rng.Int63n)
	for i := 0; i < 50; i++ {
		r.Add(float64(i))
	}
	s := r.Samples()
	if len(s) != 50 {
		t.Fatalf("len = %d, want 50", len(s))
	}
	for i, v := range s {
		if v != float64(i) {
			t.Fatalf("sample[%d] = %v", i, v)
		}
	}
	if r.Seen() != 50 {
		t.Errorf("Seen = %d", r.Seen())
	}
}

func TestReservoirBoundedAndUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewReservoir(1000, rng.Int63n)
	const n = 100000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	s := r.Samples()
	if len(s) != 1000 {
		t.Fatalf("len = %d, want 1000", len(s))
	}
	// Mean of a uniform sample over [0,n) should be near n/2.
	if m := Mean(s); math.Abs(m-n/2) > n/20 {
		t.Errorf("sample mean %v too far from %v", m, n/2)
	}
}

func TestReservoirPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewReservoir(0, func(int64) int64 { return 0 }) },
		func() { NewReservoir(10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestHistogramGrowthAmortized pins the bucket-growth contract: counts
// keeps exactly highest-bucket+1 entries (the quantile scans depend on
// it), while discovering new top buckets one at a time reallocates
// geometrically rather than once per bucket.
func TestHistogramGrowthAmortized(t *testing.T) {
	values := []float64{}
	for v := 150.0; v < 1e6; v *= 1.02 {
		values = append(values, v)
	}
	allocs := testing.AllocsPerRun(3, func() {
		h := NewHistogram(100, 1.02)
		for _, v := range values {
			h.Record(v)
			if want := h.bucketFor(v) + 1; len(h.counts) != want {
				t.Fatalf("after %v: len(counts) = %d, want %d", v, len(h.counts), want)
			}
		}
	})
	// ~445 distinct top buckets; per-bucket growth would allocate that
	// many times.
	if allocs > 40 {
		t.Fatalf("recording %d ascending values allocated %.0f times", len(values), allocs)
	}
}
