package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestBucketTableMatchesLogFormula is the exactness contract of the
// bucket table: for every float64 the table must return the bucket the
// defining log formula returns — including one ulp either side of every
// boundary, where an off-by-one would silently skew quantiles, and
// every integer nanosecond latency up to 2 ms.
func TestBucketTableMatchesLogFormula(t *testing.T) {
	for _, geom := range []struct{ min, growth float64 }{
		{100, 1.02},
		{100, 1.05},
		{1, 1.5},
		{1, 2},
		{0.25, 1.001},
	} {
		h := NewHistogram(geom.min, geom.growth)
		formula := func(v float64) int {
			if v <= h.minVal {
				return 0
			}
			return logBucket(v, h.minVal, h.logGrowth)
		}
		check := func(v float64) {
			t.Helper()
			if got, want := h.bucketFor(v), formula(v); got != want {
				t.Fatalf("geometry (%v, %v): bucketFor(%v) = %d, formula says %d",
					geom.min, geom.growth, v, got, want)
			}
		}
		if tabulated := h.table.cells != nil; tabulated != (geom.growth >= 1.02) {
			t.Fatalf("geometry (%v, %v): tabulated = %v", geom.min, geom.growth, tabulated)
		}
		for _, b := range bucketBounds(geom.min, geom.growth) {
			check(math.Nextafter(b, 0))
			check(b)
			check(math.Nextafter(b, math.Inf(1)))
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200000; i++ {
			// Log-uniform values spanning below minVal through past the
			// table's upper limit (exercising the formula fallback).
			v := math.Exp(rng.Float64()*math.Log(maxTableBound*100/geom.min)) * geom.min / 10
			check(v)
		}
		check(geom.min)
		check(maxTableBound)
		check(maxTableBound * 10)
		if geom.min == 100 && geom.growth == 1.02 { // the latency geometry
			for ns := 101; ns <= 2e6; ns++ {
				check(float64(ns))
			}
		}
	}
}

// TestBucketTableFallsBackWhenTooFine: a geometry whose cells could
// hold two boundaries at any affordable table size uses the formula.
func TestBucketTableFallsBackWhenTooFine(t *testing.T) {
	h := NewHistogram(100, 1+1e-9)
	if h.table.cells != nil || h.table.limit != h.minVal {
		t.Fatalf("growth 1+1e-9 built a table of %d cells up to %v", len(h.table.cells), h.table.limit)
	}
	for _, v := range []float64{50, 100, 100.0000001, 1e3, 1e9, 1e20} {
		want := 0
		if v > h.minVal {
			want = logBucket(v, h.minVal, h.logGrowth)
		}
		if got := h.bucketFor(v); got != want {
			t.Fatalf("bucketFor(%v) = %d, formula says %d", v, got, want)
		}
	}
}

func TestBucketTableSharedAcrossHistograms(t *testing.T) {
	a, b := NewHistogram(100, 1.02), NewHistogram(100, 1.02)
	if a.table != b.table {
		t.Fatal("same geometry must share one boundary table")
	}
	c := NewHistogram(100, 1.05)
	if c.table == a.table {
		t.Fatal("different geometries must not share a table")
	}
}

// BenchmarkHistogramRecord is the latency-accumulator layer of the perf
// ledger: ns per Record into a latency-geometry histogram, over
// lognormal latencies spread across a few hundred buckets.
func BenchmarkHistogramRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	lats := make([]float64, 4096)
	for i := range lats {
		lats[i] = math.Round(2000 * math.Exp(rng.NormFloat64()))
	}
	h := NewHistogram(100, 1.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(lats[i&(len(lats)-1)])
	}
}
