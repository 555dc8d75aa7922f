package server

import (
	"math/bits"
	"math/rand"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/ycsb"
)

// TestCountBitsMatchesNaive checks the bitmap range count against a
// bit-by-bit count over every range of a random three-word bitmap.
func TestCountBitsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	for lo := 0; lo <= 192; lo++ {
		for hi := lo; hi <= 192; hi++ {
			var want int64
			for i := lo; i < hi; i++ {
				want += int64(b[i>>6] >> (i & 63) & 1)
			}
			if got := countBits(b, lo, hi); got != want {
				t.Fatalf("countBits [%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
	if got := countBits([]uint64{^uint64(0)}, 0, 64); got != int64(bits.OnesCount64(^uint64(0))) {
		t.Fatalf("full word counted %d", got)
	}
}

// TestMemoDebtSettlesBeforeLiveUse serves a trace prefix from the memo,
// then a per-op request, and checks the deployment ends in the state a
// live replay of the same sequence leaves: clock, LLC contents and
// counters. The per-op path must settle the debt before pricing.
func TestMemoDebtSettlesBeforeLiveUse(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
	pt := w.Packed()
	cfg := DefaultConfig(DynamoLike, 41)
	memo := loadHalfFast(t, cfg, w)
	live := loadHalfFast(t, cfg, w)

	mt, lt := memo.BatchTable(), live.BatchTable()
	m := mt.Memo(w)
	if m.pt == nil {
		t.Fatal("no memo on a cold, freshly loaded deployment")
	}
	n := len(pt.Keys) / 2
	lat := mt.Block()
	for from := 0; from < n; from += ReplayBlockOps {
		end := min(from+ReplayBlockOps, n)
		mt.ServeMemo(m, from, pt.Keys[from:end], pt.Kinds[from:end], 0, lat)
		lt.Serve(pt.Keys[from:end], pt.Kinds[from:end], 0, lt.Block())
	}
	if memo.debt.end != n {
		t.Fatalf("debt covers %d requests, want %d", memo.debt.end, n)
	}
	if again := mt.Memo(w); again.pt != nil {
		t.Fatal("Memo offered on a deployment with LLC debt")
	}
	a, b := memo.DoIndex(int(pt.Keys[n]), kvstore.Read), live.DoIndex(int(pt.Keys[n]), kvstore.Read)
	if a != b {
		t.Fatalf("per-op request after memo prefix: %+v, live %+v", a, b)
	}
	if memo.debt.pt != nil {
		t.Fatal("per-op request left the debt unsettled")
	}
	ml, ll := memo.machine.LLC(), live.machine.LLC()
	if memo.Clock() != live.Clock() || ml.Len() != ll.Len() || ml.Used() != ll.Used() ||
		ml.Hits() != ll.Hits() || ml.Misses() != ll.Misses() {
		t.Fatalf("memo deployment diverged: clock %v/%v, LLC len %d/%d used %d/%d hits %d/%d misses %d/%d",
			memo.Clock(), live.Clock(), ml.Len(), ll.Len(), ml.Used(), ll.Used(),
			ml.Hits(), ll.Hits(), ml.Misses(), ll.Misses())
	}
}

// TestServeMemoOutOfSequencePanics pins the memo's precondition: a run
// must start at request 0 on a cold cache and continue contiguously.
func TestServeMemoOutOfSequencePanics(t *testing.T) {
	w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
	pt := w.Packed()
	d := loadHalfFast(t, DefaultConfig(RedisLike, 43), w)
	tab := d.BatchTable()
	m := tab.Memo(w)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("start past 0", func() { tab.ServeMemo(m, 8, pt.Keys[8:16], pt.Kinds[8:16], 0, tab.Block()) })
	tab.ServeMemo(m, 0, pt.Keys[:8], pt.Kinds[:8], 0, tab.Block())
	mustPanic("gap", func() { tab.ServeMemo(m, 9, pt.Keys[9:16], pt.Kinds[9:16], 0, tab.Block()) })
	tab.Serve(pt.Keys[8:9], pt.Kinds[8:9], 0, tab.Block()) // settles: the cache is warm now
	mustPanic("warm restart", func() { tab.ServeMemo(m, 0, pt.Keys[:8], pt.Kinds[:8], 0, tab.Block()) })
}
