package client

// Before/after microbenchmarks of the replay fast path. The baseline
// sub-benchmark reproduces the pre-optimization per-op stack verbatim —
// string-keyed routing through a placement map, a key re-hash inside the
// engine, the container/list+map LLC model, the double valueBytes
// computation, log-formula histogram bucketing, Welford summaries, and
// map-based accumulators — so the speedup of the shipped path is measured
// against the real predecessor, not a strawman. The replicas are frozen
// copies of the superseded implementations; they live only here.

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/stats"
	"mnemo/internal/ycsb"
)

func benchWorkload(b *testing.B) *ycsb.Workload {
	b.Helper()
	// Quick scale: 1 000 keys × 10 000 requests, the repo's fast
	// experiment tier. Records are the paper's ≈100 KB thumbnail objects,
	// which keeps the hot set (≈20 MB) larger than the 12 MB LLC so the
	// replay exercises the cache eviction path, not just hits.
	return ycsb.MustGenerate(ycsb.Spec{
		Name: "bench", Keys: 1000, Requests: 10000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.95, Sizes: ycsb.SizeFixed100KB, Seed: 42,
	})
}

func benchDeployment(b *testing.B, w *ycsb.Workload, p server.Placement) *server.Deployment {
	b.Helper()
	d := server.NewDeployment(server.DefaultConfig(server.RedisLike, 42))
	if err := d.Load(w.Dataset, p); err != nil {
		b.Fatal(err)
	}
	return d
}

// legacyLLC is the pre-optimization memsim.LRUCache: container/list
// entries indexed by a map, exactly the structure the flat-slice cache
// replaced.
type legacyLLC struct {
	capacity     int64
	used         int64
	order        *list.List
	index        map[uint64]*list.Element
	hits, misses int64
}

type legacyLLCEntry struct {
	id    uint64
	bytes int64
}

func newLegacyLLC(capacity int64) *legacyLLC {
	return &legacyLLC{capacity: capacity, order: list.New(), index: make(map[uint64]*list.Element)}
}

func (c *legacyLLC) access(rec memsim.RecordRef) bool {
	size := int64(rec.Bytes)
	if el, ok := c.index[rec.ID]; ok {
		if el.Value.(legacyLLCEntry).bytes == size {
			c.order.MoveToFront(el)
			c.hits++
			return true
		}
		c.removeElement(el)
	}
	c.misses++
	if size > c.capacity {
		return false
	}
	for c.used+size > c.capacity {
		if back := c.order.Back(); back != nil {
			c.removeElement(back)
		}
	}
	c.index[rec.ID] = c.order.PushFront(legacyLLCEntry{id: rec.ID, bytes: size})
	c.used += size
	return false
}

func (c *legacyLLC) remove(id uint64) {
	if el, ok := c.index[id]; ok {
		c.removeElement(el)
	}
}

func (c *legacyLLC) removeElement(el *list.Element) {
	ent := el.Value.(legacyLLCEntry)
	c.order.Remove(el)
	delete(c.index, ent.id)
	c.used -= ent.bytes
}

// legacyMachine is the pre-optimization memsim.Machine access path: Touch
// builds a full Traffic breakdown per access (the shipped pricing path
// asks the narrow TouchHit instead) and the LLC is the container/list
// model above.
type legacyMachine struct {
	fast, slow *memsim.Node
	llc        *legacyLLC
}

func (m *legacyMachine) node(t memsim.Tier) *memsim.Node {
	if t == memsim.Fast {
		return m.fast
	}
	return m.slow
}

func (m *legacyMachine) touch(t memsim.Tier, rec memsim.RecordRef, chases int) memsim.Traffic {
	tr := memsim.Traffic{Tier: t, Chases: chases}
	if m.llc != nil && m.llc.access(rec) {
		tr.CacheHit = true
		tr.HitBytes = rec.Bytes
		return tr
	}
	tr.MissBytes = rec.Bytes
	return tr
}

func (m *legacyMachine) invalidate(rec memsim.RecordRef) {
	if m.llc != nil {
		m.llc.remove(rec.ID)
	}
}

// legacyDeployment reproduces the pre-optimization server.Deployment
// request path: string-keyed placement lookup, engine access through the
// string API (which re-hashes the key), the legacy machine and LLC model,
// and the service-time computation that derived valueBytes twice per
// request.
type legacyDeployment struct {
	machine   *legacyMachine
	clock     simclock.Clock
	instances [2]kvstore.Store
	placement server.Placement
	noise     *server.Noise
	profile   kvstore.EngineProfile
}

func newLegacyDeployment(cfg server.Config) *legacyDeployment {
	m := &legacyMachine{
		fast: memsim.NewNode(cfg.Machine.FastParams, cfg.Machine.FastCapacity),
		slow: memsim.NewNode(cfg.Machine.SlowParams, cfg.Machine.SlowCapacity),
	}
	if cfg.Machine.LLCBytes > 0 {
		m.llc = newLegacyLLC(cfg.Machine.LLCBytes)
	}
	d := &legacyDeployment{
		machine:   m,
		placement: server.AllFast(),
		noise:     server.NewNoise(cfg.NoiseSigma, cfg.Seed),
		profile:   cfg.Engine.Profile(),
	}
	d.instances[memsim.Fast] = newBenchStore(cfg.Engine)
	d.instances[memsim.Slow] = newBenchStore(cfg.Engine)
	return d
}

func newBenchStore(e server.Engine) kvstore.Store {
	// Instantiate through a throwaway deployment so the replica does not
	// need the unexported engine constructor table.
	return server.NewDeployment(server.Config{Engine: e}).Instance(memsim.Fast)
}

func (d *legacyDeployment) load(ds ycsb.Dataset, p server.Placement) {
	d.placement = p
	for _, rec := range ds.Records {
		tier := p.TierOf(rec.Key)
		d.instances[tier].Put(rec.Key, kvstore.Sized(rec.Size))
		d.instances[tier].TakePauseNs() // setup-phase stalls are not timed
	}
	if d.machine.llc != nil {
		d.machine.llc = newLegacyLLC(d.machine.llc.capacity)
	}
}

func (d *legacyDeployment) do(key string, kind kvstore.OpKind, size int) server.Result {
	tier := d.placement.TierOf(key)
	st := d.instances[tier]
	var tr kvstore.OpTrace
	switch kind {
	case kvstore.Read:
		_, tr = st.Get(key)
	case kvstore.Write:
		tr = st.Put(key, kvstore.Sized(size))
	case kvstore.Delete:
		tr = st.Del(key)
	default:
		panic(fmt.Sprintf("bench: unknown op kind %v", kind))
	}

	ref := memsim.RecordRef{ID: tr.RecordID, Bytes: d.valueBytes(tr, size)}
	traffic := d.machine.touch(tier, ref, tr.Chases)
	if kind == kvstore.Delete {
		d.machine.invalidate(ref)
	}

	var medium memsim.NodeParams
	if traffic.CacheHit {
		medium = memsim.LLCParams
	} else {
		medium = d.machine.node(tier).Params
	}
	transferNs := medium.TransferNs(tr.Touched)
	if kind == kvstore.Write {
		transferNs *= d.profile.WritePenalty
	}
	memNs := (medium.ChaseNs(tr.Chases) + transferNs) / d.profile.MLP

	// The predecessor recomputed valueBytes here instead of reusing ref.
	cpuNs := d.profile.CPUBaseNs + d.profile.CPUPerByteNs*float64(d.valueBytes(tr, size))
	serviceNs := (cpuNs+memNs)*d.noise.Factor() + st.TakePauseNs()

	lat := simclock.FromNanos(serviceNs)
	d.clock.Advance(lat)
	return server.Result{Tier: tier, Kind: kind, Latency: lat, Found: tr.Found, Hit: traffic.CacheHit}
}

func (d *legacyDeployment) valueBytes(tr kvstore.OpTrace, writeSize int) int {
	if tr.Kind == kvstore.Write {
		return writeSize
	}
	if !tr.Found {
		return 0
	}
	amp := d.profile.ReadAmplification
	if amp < 1 {
		amp = 1
	}
	return int(float64(tr.Touched) / amp)
}

// legacyHistogram reproduces the pre-optimization stats.Histogram Record
// path: the bucket index came straight from the defining formula with no
// cached log(growth) and no boundary table — two math.Log calls per
// recording.
type legacyHistogram struct {
	minVal, growth float64
	counts         []int64
	total          int64
	sum            float64
	maxSeen        float64
	minSeen        float64
}

func newLegacyHistogram(minVal, growth float64) *legacyHistogram {
	return &legacyHistogram{minVal: minVal, growth: growth, minSeen: math.Inf(1)}
}

func (h *legacyHistogram) Record(v float64) {
	idx := 0
	if v > h.minVal {
		idx = int(math.Log(v/h.minVal)/math.Log(h.growth)) + 1
	}
	if idx >= len(h.counts) {
		grown := make([]int64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
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

// legacyReplay is the replay loop as it stood before the integer-keyed
// fast path: per-op string routing, map-keyed accumulators, Welford
// summaries, and a second run-level histogram recording per op.
func legacyReplay(d *legacyDeployment, w *ycsb.Workload) {
	var readSum, writeSum stats.Summary
	readBuckets := map[int]*stats.Summary{}
	writeBuckets := map[int]*stats.Summary{}
	readHists := map[int]*legacyHistogram{}
	writeHists := map[int]*legacyHistogram{}
	hist := newLegacyHistogram(latencyHistMin, latencyHistGrowth)
	for _, op := range w.Ops {
		rec := w.Dataset.Records[op.Key]
		res := d.do(rec.Key, op.Kind, rec.Size)
		ns := float64(res.Latency.Nanoseconds())
		hist.Record(ns)
		bkt := SizeBucket(rec.Size)
		if op.Kind == kvstore.Read {
			readSum.Add(ns)
			s, ok := readBuckets[bkt]
			if !ok {
				s = &stats.Summary{}
				readBuckets[bkt] = s
			}
			s.Add(ns)
			h, ok := readHists[bkt]
			if !ok {
				h = newLegacyHistogram(latencyHistMin, latencyHistGrowth)
				readHists[bkt] = h
			}
			h.Record(ns)
		} else {
			writeSum.Add(ns)
			s, ok := writeBuckets[bkt]
			if !ok {
				s = &stats.Summary{}
				writeBuckets[bkt] = s
			}
			s.Add(ns)
			h, ok := writeHists[bkt]
			if !ok {
				h = newLegacyHistogram(latencyHistMin, latencyHistGrowth)
				writeHists[bkt] = h
			}
			h.Record(ns)
		}
	}
}

// BenchmarkReplay measures one full Quick-scale trace replay per
// iteration: the pre-optimization string-keyed stack vs the shipped
// integer-keyed path (client.Run without the RunStats assembly).
func BenchmarkReplay(b *testing.B) {
	w := benchWorkload(b)
	recs := w.Dataset.Records
	half := len(recs) / 2
	fastKeys := make([]string, half)
	fastIdx := make([]int, half)
	for i := 0; i < half; i++ {
		fastKeys[i] = recs[i].Key
		fastIdx[i] = i
	}
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Ops)), "ns/req")
	}

	b.Run("StringKeyed", func(b *testing.B) {
		d := newLegacyDeployment(server.DefaultConfig(server.RedisLike, 42))
		d.load(w.Dataset, server.FastSet(fastKeys))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			legacyReplay(d, w)
		}
		perOp(b)
	})
	b.Run("Indexed", func(b *testing.B) {
		d := benchDeployment(b, w, server.FastIndices(fastIdx, len(recs)))
		classes := sizeClasses(recs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := newReplayAccum()
			replay(d, w, classes, a)
		}
		perOp(b)
	})
}

// BenchmarkReplayBatched measures the batched replay kernel against the
// shipped per-op indexed path it supersedes: same deployment layout,
// same trace, identical simulated results (TestBatchedReplayBitIdentical)
// — only the per-request machinery differs. Indexed drives every request
// through DoIndex (engine interface call, trace pricing, pause polling);
// Batched streams the packed trace through the precomputed cost table
// against the live LLC model. Memo is a repeated measurement as
// ExecuteMean runs it — ResetRun, then RunCtx with its RunStats
// assembly — whose hit/miss stream comes from the trace's LLC outcome
// memo (built before the timer starts); TestLLCMemoMatchesLiveAndPerOp
// pins it bit-identical to the other two.
func BenchmarkReplayBatched(b *testing.B) {
	w := benchWorkload(b)
	recs := w.Dataset.Records
	half := len(recs) / 2
	fastIdx := make([]int, half)
	for i := 0; i < half; i++ {
		fastIdx[i] = i
	}
	p := server.FastIndices(fastIdx, len(recs))
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Ops)), "ns/req")
	}

	b.Run("Indexed", func(b *testing.B) {
		d := benchDeployment(b, w, p)
		classes := sizeClasses(recs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := newReplayAccum()
			replay(d, w, classes, a)
		}
		perOp(b)
	})
	b.Run("Batched", func(b *testing.B) {
		d := benchDeployment(b, w, p)
		tab := d.BatchTable()
		if tab == nil {
			b.Fatal("no batch table")
		}
		pt := w.Packed()
		if !pt.Batchable() {
			b.Fatal("trace not batchable")
		}
		classes := sizeClasses(recs)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := newReplayAccum()
			if err := replayBatched(ctx, d, tab, pt.Keys, pt.Kinds, classes, a, 0); err != nil {
				b.Fatal(err)
			}
		}
		perOp(b)
	})
	b.Run("Memo", func(b *testing.B) {
		d := benchDeployment(b, w, p)
		d.BatchTable().Memo(w) // build the memo outside the timed loop
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !d.ResetRun(42) {
				b.Fatal("ResetRun refused")
			}
			if _, err := RunCtx(ctx, d, w, 0); err != nil {
				b.Fatal(err)
			}
		}
		perOp(b)
	})
}

// BenchmarkReplayAdaptive measures the epoch-chunked adaptive replay
// against the static path it wraps, on the same stationary trace and
// placement. The adaptive side pays the epoch machinery in full: chunk
// boundaries, the per-record access tally, an observer call per epoch,
// and a two-record migration with the cost-table re-price behind it.
// The benchgate family for this benchmark gates overhead, not speedup:
// its static-over-adaptive ratio sits near (slightly below) 1.0, and
// the gate fails if the adaptive path ever grows markedly slower than
// the static kernel on a trace that never needed to adapt.
func BenchmarkReplayAdaptive(b *testing.B) {
	w := benchWorkload(b)
	recs := w.Dataset.Records
	half := len(recs) / 2
	fastIdx := make([]int, half)
	for i := 0; i < half; i++ {
		fastIdx[i] = i
	}
	p := server.FastIndices(fastIdx, len(recs))
	perOp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.Ops)), "ns/req")
	}
	ctx := context.Background()

	b.Run("Static", func(b *testing.B) {
		d := benchDeployment(b, w, p)
		classes := sizeClasses(recs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := newReplayAccum()
			if err := replayStatic(ctx, d, w, classes, a, 0); err != nil {
				b.Fatal(err)
			}
		}
		perOp(b)
	})
	b.Run("Adaptive", func(b *testing.B) {
		cfg := server.DefaultConfig(server.RedisLike, 42)
		cfg.Adaptive = greedySource{}
		cfg.EpochOps = 4096
		d := server.NewDeployment(cfg)
		if err := d.Load(w.Dataset, p); err != nil {
			b.Fatal(err)
		}
		classes := sizeClasses(recs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := newReplayAccum()
			if _, err := replayEpochs(ctx, d, greedySource{}, cfg.EpochOps, w, classes, a, 0); err != nil {
				b.Fatal(err)
			}
		}
		perOp(b)
	})
}

// BenchmarkExecuteMeanParallel measures repeated-run averaging serially
// and across the worker pool; the runs are independent simulations, so
// wall-clock time should scale down near-linearly with workers (given
// spare cores) while the folded result stays bit-identical
// (TestExecuteMeanWorkersBitIdentical).
func BenchmarkExecuteMeanParallel(b *testing.B) {
	w := benchWorkload(b)
	cfg := server.DefaultConfig(server.RedisLike, 42)
	const runs = 8
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExecuteMeanWorkers(cfg, w, server.AllFast(), runs, workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Workers1", bench(1))
	b.Run("WorkersMax", bench(runtime.GOMAXPROCS(0)))
}
