package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram is a log-bucketed latency histogram in the spirit of HDR
// histograms: values are recorded into buckets whose width grows
// geometrically, giving bounded relative error for percentile queries at
// O(1) memory per recording. It is used by the client to track request
// latencies for the tail-latency figures (Fig 8d, 8e) without retaining
// every sample.
//
// The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	growth    float64 // geometric bucket growth factor, > 1
	logGrowth float64 // cached math.Log(growth); spares one Log per Record
	minVal    float64 // lower bound of bucket 0
	table     *bucketTable
	counts    []int64
	total     int64
	sum       float64
	maxSeen   float64
	minSeen   float64
}

// NewHistogram creates a histogram whose buckets start at minVal and grow
// by the given factor per bucket. A growth of 1.05 bounds the relative
// quantile error at about 5%. It panics on invalid parameters.
func NewHistogram(minVal, growth float64) *Histogram {
	if minVal <= 0 {
		panic("stats: histogram minVal must be positive")
	}
	if growth <= 1 {
		panic("stats: histogram growth must exceed 1")
	}
	return &Histogram{
		growth:    growth,
		logGrowth: math.Log(growth),
		minVal:    minVal,
		table:     tableFor(minVal, growth),
		minSeen:   math.Inf(1),
	}
}

// logBucket is the defining bucket formula: values v > minVal land in
// bucket floor(log(v/minVal)/log(growth)) + 1. Record goes through a
// precomputed boundary table instead (bucketFor below), which by
// construction returns exactly this function's result for every float —
// the table spares two transcendental calls per recording, it does not
// change the geometry.
func logBucket(v, minVal, logGrowth float64) int {
	return int(math.Log(v/minVal)/logGrowth) + 1
}

// bucketFor maps a value to its bucket index (values below minVal share
// bucket 0).
func (h *Histogram) bucketFor(v float64) int {
	if v <= h.minVal {
		return 0
	}
	if t := h.table; t != nil && v < t.last {
		return t.lookup(v)
	}
	return logBucket(v, h.minVal, h.logGrowth)
}

// bucketTable precomputes the exact bucket boundaries of one (minVal,
// growth) geometry so the per-Record bucket lookup is a polynomial log2
// estimate snapped to the exact boundary array — no logarithms on the hot
// path. bounds[i] is the smallest float64 whose logBucket is i+2 (the
// boundary between buckets i+1 and i+2), found by ulp-walking around
// minVal·growth^(i+1), so table and formula agree on every input bit for
// bit.
type bucketTable struct {
	bounds        []float64
	last          float64 // bounds[len-1]; values at or above fall back to the formula
	log2Min       float64 // log2(minVal)
	invLog2Growth float64 // 1 / log2(growth)
}

// Boundaries are tabulated up to 1e15 (for latency histograms: ~11 days
// in nanoseconds); larger values are rare enough to pay the Log.
const maxTableBound = 1e15

func buildBucketTable(minVal, growth float64) *bucketTable {
	logGrowth := math.Log(growth)
	var bounds []float64
	for k := 1; ; k++ {
		v := minVal * math.Pow(growth, float64(k))
		if v > maxTableBound {
			break
		}
		// Pow lands within ulps of the true boundary; walk to the exact
		// smallest float the formula assigns to bucket k+1.
		for v > minVal && logBucket(v, minVal, logGrowth) >= k+1 {
			v = math.Nextafter(v, 0)
		}
		for v <= minVal || logBucket(v, minVal, logGrowth) < k+1 {
			v = math.Nextafter(v, math.Inf(1))
		}
		bounds = append(bounds, v)
	}
	if len(bounds) == 0 {
		return &bucketTable{last: minVal} // degenerate geometry, formula only
	}
	return &bucketTable{
		bounds:        bounds,
		last:          bounds[len(bounds)-1],
		log2Min:       math.Log2(minVal),
		invLog2Growth: 1 / math.Log2(growth),
	}
}

// lookup returns the bucket of v; the caller guarantees
// minVal < v < t.last. The bucket is 1 + (number of boundaries ≤ v). A
// quadratic estimate of log2(v) built from the raw float bits lands
// within a fraction of a bucket for common growth factors; the estimate
// is then snapped to the exact boundary array, so the result matches the
// defining formula bit for bit no matter how coarse the estimate was.
func (t *bucketTable) lookup(v float64) int {
	bits := math.Float64bits(v)
	m := 1 + float64(bits&(1<<52-1))*(1.0/(1<<52)) // mantissa in [1, 2)
	// Quadratic minimax fit of log2(m) on [1, 2); |error| < 0.009.
	log2 := float64(int(bits>>52&0x7ff)-1023) + (2.0248613-0.3448549*m)*m - 1.6799357
	c := int((log2 - t.log2Min) * t.invLog2Growth)
	if c < 0 {
		c = 0
	} else if c >= len(t.bounds) {
		c = len(t.bounds) - 1
	}
	for c < len(t.bounds) && t.bounds[c] <= v {
		c++
	}
	for c > 0 && t.bounds[c-1] > v {
		c--
	}
	return c + 1
}

// tableFor returns the shared boundary table of a geometry, building it
// on first use. Histograms of one geometry all point at one immutable
// table, so construction cost is paid once per process.
var (
	tableMu    sync.Mutex
	tableCache = map[[2]float64]*bucketTable{}
)

func tableFor(minVal, growth float64) *bucketTable {
	tableMu.Lock()
	defer tableMu.Unlock()
	key := [2]float64{minVal, growth}
	t, ok := tableCache[key]
	if !ok {
		t = buildBucketTable(minVal, growth)
		tableCache[key] = t
	}
	return t
}

// bucketUpper returns the representative (upper bound) value for bucket i.
func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return h.minVal
	}
	return h.minVal * math.Pow(h.growth, float64(i))
}

// Record adds one observation. Non-positive values are clamped into the
// lowest bucket (latencies are always positive in practice).
func (h *Histogram) Record(v float64) {
	idx := 0
	if v > 0 {
		idx = h.bucketFor(v)
	}
	if idx >= len(h.counts) {
		h.grow(idx + 1)
	}
	h.counts[idx]++
	h.total++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
}

// grow extends counts to length n (> len) with zeroed buckets. The
// backing array grows geometrically, by a quarter, so discovering a run
// of new top buckets one at a time costs amortized O(1) allocations
// while a finished histogram — many are kept in reports — carries at
// most 25% slack. len(counts) stays exactly the highest observed bucket
// + 1, which the quantile and mixture scans depend on. Capacity beyond
// len is never written before it is exposed, so it is still zero.
func (h *Histogram) grow(n int) {
	if n <= cap(h.counts) {
		h.counts = h.counts[:n]
		return
	}
	grown := make([]int64, n, n+n/4)
	copy(grown, h.counts)
	h.counts = grown
}

// N returns the number of recorded observations.
func (h *Histogram) N() int64 { return h.total }

// Sum returns the exact sum of recorded observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean of recorded observations (tracked outside
// the buckets, so it carries no bucketing error).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded observation (exact).
func (h *Histogram) Max() float64 { return h.maxSeen }

// Min returns the smallest recorded observation (exact), or +Inf if empty.
func (h *Histogram) Min() float64 { return h.minSeen }

// Quantile returns an estimate of the q-th quantile (0 < q ≤ 1) with
// relative error bounded by the bucket growth factor. It returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.minSeen
	}
	if q >= 1 {
		return h.maxSeen
	}
	target := int64(math.Ceil(q * float64(h.total)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := h.bucketUpper(i)
			// Clamp to the observed extrema so tails stay exact.
			if v > h.maxSeen {
				v = h.maxSeen
			}
			if v < h.minSeen {
				v = h.minSeen
			}
			return v
		}
	}
	return h.maxSeen
}

// Percentiles is a convenience wrapper returning estimates for several
// percentile points at once (expressed 0–100).
func (h *Histogram) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = h.Quantile(p / 100)
	}
	return out
}

// String renders a short textual summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.maxSeen)
}

// Compatible reports whether two histograms share bucket geometry and
// can therefore be merged or mixed.
func (h *Histogram) Compatible(o *Histogram) bool {
	return h.minVal == o.minVal && h.growth == o.growth
}

// Merge folds another histogram's recordings into h. The histograms must
// share bucket geometry (same NewHistogram parameters); Merge panics
// otherwise.
func (h *Histogram) Merge(o *Histogram) {
	if !h.Compatible(o) {
		panic("stats: merging incompatible histograms")
	}
	if len(o.counts) > len(h.counts) {
		h.grow(len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
	if o.minSeen < h.minSeen {
		h.minSeen = o.minSeen
	}
}

// MixtureQuantile returns the q-th quantile (0 < q < 1) of the weighted
// mixture of histograms: component i contributes weight[i] total
// probability mass, distributed according to its empirical shape. All
// histograms must share bucket geometry; components with zero weight or
// no recordings are skipped. It panics on mismatched slice lengths or
// incompatible geometry, and returns 0 when no mass remains.
//
// This powers the tail-latency estimation extension: the latency
// distribution of a hybrid tiering is a mixture of the per-tier baseline
// distributions, weighted by how many requests the tiering sends to each
// tier.
func MixtureQuantile(hs []*Histogram, weights []float64, q float64) float64 {
	if len(hs) != len(weights) {
		panic("stats: mixture length mismatch")
	}
	var ref *Histogram
	totalW := 0.0
	maxBuckets := 0
	for i, h := range hs {
		if weights[i] < 0 {
			panic("stats: negative mixture weight")
		}
		if weights[i] == 0 || h == nil || h.total == 0 {
			continue
		}
		if ref == nil {
			ref = h
		} else if !ref.Compatible(h) {
			panic("stats: mixing incompatible histograms")
		}
		totalW += weights[i]
		if len(h.counts) > maxBuckets {
			maxBuckets = len(h.counts)
		}
	}
	if ref == nil || totalW == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q >= 1 {
		q = 1 - 1e-9
	}
	target := q * totalW
	cum := 0.0
	for b := 0; b < maxBuckets; b++ {
		for i, h := range hs {
			if weights[i] == 0 || h == nil || h.total == 0 || b >= len(h.counts) {
				continue
			}
			cum += weights[i] * float64(h.counts[b]) / float64(h.total)
		}
		if cum >= target {
			return ref.bucketUpper(b)
		}
	}
	// Mass exhausted by rounding: report the largest observation.
	out := 0.0
	for i, h := range hs {
		if weights[i] > 0 && h != nil && h.total > 0 && h.maxSeen > out {
			out = h.maxSeen
		}
	}
	return out
}

// Reservoir keeps a bounded uniform random sample of a stream using
// Vitter's Algorithm R with a caller-supplied random source, so exact
// percentiles can be computed over streams too large to retain.
type Reservoir struct {
	cap     int
	seen    int64
	samples []float64
	randInt func(n int64) int64
}

// NewReservoir creates a reservoir holding at most capacity samples.
// randInt must return a uniform integer in [0, n); pass the Int63n method
// of a seeded *rand.Rand for determinism.
func NewReservoir(capacity int, randInt func(n int64) int64) *Reservoir {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	if randInt == nil {
		panic("stats: reservoir needs a random source")
	}
	return &Reservoir{cap: capacity, randInt: randInt}
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, x)
		return
	}
	if j := r.randInt(r.seen); j < int64(r.cap) {
		r.samples[j] = x
	}
}

// Samples returns the current sample set (sorted copy).
func (r *Reservoir) Samples() []float64 {
	out := append([]float64(nil), r.samples...)
	sort.Float64s(out)
	return out
}

// Seen reports how many observations were offered in total.
func (r *Reservoir) Seen() int64 { return r.seen }
