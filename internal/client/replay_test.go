package client

import (
	"fmt"
	"testing"

	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/ycsb"
)

// deleteFramesWorkload is an in-memory trace whose structural ops sit in
// known frames, so one replay mixes kernel and per-op frames:
//
//   - frame 1 deletes a record and writes it back;
//   - frame 2 deletes the victim, a record the trace touches nowhere else;
//   - frame 3 deletes the victim again;
//   - frame 5 writes the victim back.
//
// Frames 0, 4 and 6 are read/write over live records: kernel frames.
// With reviveSource's migration after frame 2, the Delete in frame 3
// finds the victim and changes store structure, although the trace
// alone says the victim is already gone.
func deleteFramesWorkload() (w *ycsb.Workload, victim int) {
	const b = replayBlockOps
	w = ycsb.MustGenerate(ycsb.Spec{
		Name: "delframes", Keys: 500, Requests: 6*b + 300,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeThumbnail, Seed: 19,
	})
	victim = len(w.Dataset.Records) - 1
	for i := range w.Ops {
		if w.Ops[i].Key == victim {
			w.Ops[i].Key = 0
		}
	}
	hot := w.Ops[b+10].Key
	w.Ops[b+10].Kind = kvstore.Delete
	w.Ops[b+20] = ycsb.Op{Key: hot, Kind: kvstore.Write}
	w.Ops[2*b+50] = ycsb.Op{Key: victim, Kind: kvstore.Delete}
	w.Ops[3*b+50] = ycsb.Op{Key: victim, Kind: kvstore.Delete}
	w.Ops[5*b+50] = ycsb.Op{Key: victim, Kind: kvstore.Write}
	return w, victim
}

// reviveSource is greedySource with two scripted boundaries (4096-op
// epochs): after frame 2 it also moves the deleted victim to the other
// tier, which re-inserts it, and after frame 3 it moves nothing, so
// frame 4 runs on the cost table exactly as frame 3 left it.
type reviveSource struct{ victim int }

func (s reviveSource) Begin(*ycsb.Workload) (server.EpochObserver, error) { return s, nil }

func (s reviveSource) Observe(st server.EpochStats) []server.Move {
	switch st.Epoch {
	case 2:
		to := memsim.Fast
		if st.Tiers[s.victim] == memsim.Fast {
			to = memsim.Slow
		}
		return append(greedyObserver{}.Observe(st), server.Move{Index: s.victim, To: to})
	case 3:
		return nil
	}
	return greedyObserver{}.Observe(st)
}

// TestReplayDeleteFramesMatchPerOp pins the structural-frame rule on an
// in-memory Delete-bearing trace: with the kernel serving the
// read/write frames, the run must equal the whole-run per-op replay —
// statically and with epochs whose migrations re-insert a deleted
// record.
func TestReplayDeleteFramesMatchPerOp(t *testing.T) {
	w, victim := deleteFramesWorkload()
	if w.Packed().Batchable() {
		t.Fatal("delete trace still batchable")
	}
	p := halfFast(w)
	for _, e := range goldenEngines {
		d := server.NewDeployment(server.DefaultConfig(e, 7))
		if err := d.Load(w.Dataset, p); err != nil {
			t.Fatal(err)
		}
		if d.BatchTable() == nil {
			t.Fatalf("%v: no batch table; the kernel frames would go per-op", e)
		}
		for _, epochOps := range []int{0, 4096} {
			cfg := server.DefaultConfig(e, 7)
			if epochOps > 0 {
				cfg.Adaptive = reviveSource{victim: victim}
				cfg.EpochOps = epochOps
				cfg.MigrationCostPerByte = 0.5
			}
			label := fmt.Sprintf("%v/epoch%d", e, epochOps)
			batched, perOp, errB, errP := executeBoth(t, cfg, w, p)
			requireSameOutcome(t, label, batched, perOp, errB, errP)
			if errB != nil {
				t.Fatalf("%s: %v", label, errB)
			}
			if epochOps > 0 && batched.MovesApplied == 0 {
				t.Fatalf("%s: no migration; the re-insert case is vacuous", label)
			}
		}
	}
}

// TestReplayPackedOnlyPerOp: a shard sub-workload exists only in packed
// form (ycsb.FromPacked), and the per-op path reads its frames too —
// bit-identical to the kernel.
func TestReplayPackedOnlyPerOp(t *testing.T) {
	part, err := shard.Split(testWorkload(0.9), 2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for s, sub := range part.Subs {
		if sub.W.Ops != nil {
			t.Fatalf("shard %d: sub-workload materialized Ops", s)
		}
		for _, e := range goldenEngines {
			label := fmt.Sprintf("shard%d/%v", s, e)
			batched, perOp, errB, errP := executeBoth(t, server.DefaultConfig(e, 5), sub.W, server.AllSlow())
			if errP != nil {
				t.Fatalf("%s: per-op replay of a packed-only trace: %v", label, errP)
			}
			requireSameOutcome(t, label, batched, perOp, errB, errP)
			if perOp.Requests != sub.Requests {
				t.Fatalf("%s: replayed %d of %d requests", label, perOp.Requests, sub.Requests)
			}
		}
	}
}
