package server

import (
	"math/bits"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// LLC outcome memo (DESIGN.md §12). The LLC model's hit/miss decision
// for a request depends only on the sequence of (record ID, footprint)
// references before it and on the cache capacity — not on placement,
// noise, faults, GC pauses or the clock. The cache starts cold after
// every Load and ResetRun, so every repetition of a batchable trace on
// one engine recomputes the same hit/miss stream. The memo computes that
// stream once per (trace, engine, capacity), as one bit per request
// cached on the trace's packed encoding, and ServeMemo reads the bit in
// place of an LRU access.
//
// The live LRU is kept honest lazily: ServeMemo credits its hit/miss
// counters for the served prefix (so hit rates and the obs flush stay
// exact) and records the prefix as debt; the next live use of the cache
// (Serve, the per-op path, Machine) replays the debt into the LRU first.
// A deployment that is rewound before then (the common case) never pays
// for it.

// LLCMemo is one trace's precomputed LLC outcome stream for a
// deployment: bit i of hits is request i's outcome on a cold cache. The
// zero value is no memo.
type LLCMemo struct {
	pt   *ycsb.PackedTrace
	hits []uint64
}

// llcDebt is the served prefix pt.Keys[:end] of a memo-served run that
// the live LLC model has not seen.
type llcDebt struct {
	pt  *ycsb.PackedTrace
	end int
}

// Memo returns the LLC outcome memo of w's trace for this deployment,
// building it on first use, or the zero LLCMemo when the memo cannot
// stand in for the live cache model: w is not an in-memory batchable
// trace, the deployment was not loaded with w's dataset, it has no LLC
// model, or the live LLC is not cold (a request has touched it since
// the last Load or ResetRun).
func (t *ReplayTable) Memo(w *ycsb.Workload) LLCMemo {
	d := t.d
	pt := w.Packed()
	llc := d.machine.LLC()
	if !pt.Batchable() || llc == nil || !d.loadedWith(w.Dataset) || d.debt.pt != nil || !llc.Cold() {
		return LLCMemo{}
	}
	key := ycsb.OutcomeKey{Engine: int(d.cfg.Engine), Capacity: llc.Capacity()}
	hits := pt.Outcomes(key, func() []uint64 { return d.buildOutcomes(pt, llc.Capacity()) })
	if len(hits)*64 < len(pt.Keys) {
		return LLCMemo{} // a failed build leaves no memo behind
	}
	return LLCMemo{pt: pt, hits: hits}
}

// loadedWith reports whether the deployment's records are ds's records
// — the same backing array, not merely equal contents.
func (d *Deployment) loadedWith(ds ycsb.Dataset) bool {
	return len(d.records) == len(ds.Records) &&
		(len(ds.Records) == 0 || &d.records[0] == &ds.Records[0])
}

// llcRef is the cache reference a request of the given kind makes to
// record i: its identity and valueBytes footprint.
func (d *Deployment) llcRef(i int, kind uint8) memsim.RecordRef {
	rec := &d.records[i]
	if kvstore.OpKind(kind) == kvstore.Read {
		_, vb := d.readFootprint(rec.Size)
		return memsim.RecordRef{ID: rec.ID, Bytes: vb}
	}
	return memsim.RecordRef{ID: rec.ID, Bytes: rec.Size}
}

// buildOutcomes runs a private LRU of the given capacity over the
// trace's references and records each request's outcome.
func (d *Deployment) buildOutcomes(pt *ycsb.PackedTrace, capacity int64) []uint64 {
	llc := memsim.NewLRUCache(capacity)
	hits := make([]uint64, (len(pt.Keys)+63)/64)
	for i, k := range pt.Keys {
		if llc.Access(d.llcRef(int(k), pt.Kinds[i])) {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	return hits
}

// ServeMemo is Serve with each request's LLC outcome read from the memo
// instead of the live cache model. keys and kinds must be the memo
// trace's requests [from, from+len(keys)), and a run must serve them in
// order from 0 on a fresh Memo: the memo's outcomes assume a cold cache
// that has seen exactly the requests before from. It credits the live
// LLC's counters for the requests served and records them as debt.
// With the zero LLCMemo it is Serve.
func (t *ReplayTable) ServeMemo(m LLCMemo, from int, keys []uint32, kinds []uint8, maxClock simclock.Duration, lat []simclock.Duration) int {
	if m.pt == nil {
		return t.Serve(keys, kinds, maxClock, lat)
	}
	d := t.d
	llc := d.machine.LLC()
	switch {
	case from == 0 && d.debt.pt == nil && llc.Cold():
	case from > 0 && d.debt == llcDebt{pt: m.pt, end: from}:
	default:
		panic("server: LLC memo served out of sequence")
	}
	n := t.serve(keys, kinds, m.hits, from, maxClock, lat)
	if n > 0 {
		h := countBits(m.hits, from, from+n)
		llc.Credit(h, int64(n)-h)
		d.debt = llcDebt{pt: m.pt, end: from + n}
	}
	return n
}

// countBits counts the set bits of bitmap positions [lo, hi).
func countBits(b []uint64, lo, hi int) int64 {
	var n int
	for lo < hi {
		w := b[lo>>6] >> (lo & 63)
		span := 64 - lo&63
		if hi-lo < span {
			span = hi - lo
			w &= 1<<span - 1
		}
		n += bits.OnesCount64(w)
		lo += span
	}
	return int64(n)
}

// settleLLC replays a pending LLC debt into the live cache model, so it
// holds exactly the contents a live replay of the served prefix would
// have left. The counters already include the debt and are restored.
func (d *Deployment) settleLLC() {
	if d.debt.pt == nil {
		return
	}
	pt, end := d.debt.pt, d.debt.end
	d.debt = llcDebt{}
	llc := d.machine.LLC()
	h, m := llc.Hits(), llc.Misses()
	for i, k := range pt.Keys[:end] {
		llc.Access(d.llcRef(int(k), pt.Kinds[i]))
	}
	llc.ResetStats()
	llc.Credit(h, m)
}
