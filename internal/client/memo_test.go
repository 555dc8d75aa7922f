package client

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// Differential tests of the LLC outcome memo (DESIGN.md §12): a run
// whose hit/miss stream is read from the memo must be indistinguishable
// — RunStats, error text, telemetry — from the same run on the live LLC
// kernel and on the per-op reference path.

// noMemo is a memo resolver that never memoizes: with it installed as
// memoFor, every batched run replays on the live LLC model.
func noMemo(*server.ReplayTable, *ycsb.Workload) server.LLCMemo { return server.LLCMemo{} }

// observed is one execution's complete observable outcome.
type observed struct {
	st       RunStats
	err      string
	counters map[string]float64
}

// observe runs exec under a fresh obs sink and captures its outcome.
func observe(cfg server.Config, exec func(server.Config) (RunStats, error)) observed {
	sink := obs.NewSink()
	cfg.Obs = sink
	st, err := exec(cfg)
	o := observed{st: st, counters: map[string]float64{}}
	if err != nil {
		o.err = err.Error()
	}
	for _, m := range sink.Registry().Snapshot() {
		if m.Kind == "counter" {
			o.counters[m.Name] = m.Value
		}
	}
	return o
}

// threeWays runs exec through the memo (default), the live LLC kernel
// and the per-op path, and fails unless all three agree exactly.
func threeWays(t *testing.T, label string, cfg server.Config, exec func(server.Config) (RunStats, error)) observed {
	t.Helper()
	memo := observe(cfg, exec)
	ref := cfg
	ref.DisableBatchReplay = true
	perOp := observe(ref, exec)
	saved := memoFor
	memoFor = noMemo
	live := observe(cfg, exec)
	memoFor = saved
	for _, other := range []struct {
		name string
		o    observed
	}{{"per-op", perOp}, {"live kernel", live}} {
		if memo.err != other.o.err {
			t.Fatalf("%s: error diverged from %s:\n  memo: %s\n  %s: %s", label, other.name, memo.err, other.name, other.o.err)
		}
		if !reflect.DeepEqual(memo.st, other.o.st) {
			t.Fatalf("%s: stats diverged from %s:\n  memo: %+v\n  %s: %+v", label, other.name, memo.st, other.name, other.o.st)
		}
		if !reflect.DeepEqual(memo.counters, other.o.counters) {
			t.Fatalf("%s: obs counters diverged from %s:\n  memo: %v\n  %s: %v", label, other.name, memo.counters, other.name, other.o.counters)
		}
	}
	return memo
}

// countdownCtx reports cancellation once Err has been polled n times —
// a deterministic cancellation at a fixed block boundary.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestLLCMemoMatchesLiveAndPerOp sweeps engines, placements, noise,
// the crash, stall and outlier faults (a stall trips the run timeout
// mid-block) and cluster shapes.
func TestLLCMemoMatchesLiveAndPerOp(t *testing.T) {
	w := testWorkload(0.9)
	n := len(w.Dataset.Records)
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	placements := []struct {
		name string
		p    server.Placement
	}{{"fast", server.AllFast()}, {"slow", server.AllSlow()}, {"half", server.FastIndices(half, n)}}
	faults := []struct {
		name string
		f    server.FaultSpec
	}{
		{"healthy", server.FaultSpec{}},
		{"crash", server.FaultSpec{Seed: 5, CrashProb: 1, StallWindowOps: 4000}},
		{"stall", server.FaultSpec{Seed: 5, StallProb: 1, StallWindowOps: 4500}},
		{"outlier", server.FaultSpec{Seed: 5, OutlierProb: 1}},
	}
	sawErr := map[string]bool{}
	for _, e := range goldenEngines {
		for _, pl := range placements {
			execute := func(cfg server.Config) (RunStats, error) { return Execute(cfg, w, pl.p) }
			for _, sigma := range []float64{0, 0.02} {
				for _, f := range faults {
					for _, shards := range []int{0, 1, 2} {
						cfg := server.DefaultConfig(e, 11)
						cfg.NoiseSigma = sigma
						cfg.Fault = f.f
						cfg.Shards = shards
						if f.name == "stall" {
							// The healthy trace never reaches this budget;
							// the 10 s injected stall always crosses it.
							cfg.RunTimeout = simclock.Second
						}
						label := fmt.Sprintf("%v/%s/σ%v/%s/shards%d", e, pl.name, sigma, f.name, shards)
						o := threeWays(t, label, cfg, execute)
						if o.err != "" {
							sawErr[f.name] = true
						}
					}
				}
			}
		}
	}
	for _, f := range []string{"crash", "stall"} {
		if !sawErr[f] {
			t.Errorf("no %s fault fired; coverage vacuous", f)
		}
	}
}

// TestLLCMemoTimeoutAndCancellation covers the two mid-run cut-offs
// without a fault: a RunTimeout that trips inside the first block, and
// cancellation at the second block boundary.
func TestLLCMemoTimeoutAndCancellation(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "memocut", Keys: 1000, Requests: 3 * replayBlockOps,
		Dist:      ycsb.DistSpec{Kind: ycsb.Hotspot, HotSetFraction: 0.2, HotOpnFraction: 0.9},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed100KB, Seed: 3,
	})
	for _, e := range goldenEngines {
		for _, shards := range []int{0, 1, 2} {
			cfg := server.DefaultConfig(e, 17)
			cfg.Shards = shards
			full, err := Execute(cfg, w, server.AllSlow())
			if err != nil {
				t.Fatal(err)
			}
			cut := cfg
			cut.RunTimeout = full.Runtime / 5 // inside the first block
			o := threeWays(t, fmt.Sprintf("%v/shards%d/timeout", e, shards), cut,
				func(c server.Config) (RunStats, error) { return Execute(c, w, server.AllSlow()) })
			if o.err == "" {
				t.Fatalf("%v/shards%d: timeout did not trip", e, shards)
			}
			if shards == 2 {
				continue // shard workers poll ctx concurrently: no fixed countdown
			}
			o = threeWays(t, fmt.Sprintf("%v/shards%d/cancel", e, shards), cfg,
				func(c server.Config) (RunStats, error) {
					ctx := &countdownCtx{Context: context.Background()}
					ctx.n.Store(3) // executeFresh, block 0, block 1; block 2 sees the cancel
					return ExecuteCtx(ctx, c, w, server.AllSlow())
				})
			if o.err != context.Canceled.Error() {
				t.Fatalf("%v/shards%d: cancel err %q", e, shards, o.err)
			}
			if o.counters["mnemo_server_llc_hits_total"]+o.counters["mnemo_server_llc_misses_total"] == 0 {
				t.Fatalf("%v/shards%d: cancelled run flushed no LLC counts: %v", e, shards, o.counters)
			}
		}
	}
}

// TestLLCMemoRepetitions covers the repeated-measurement driver, whose
// post-Load snapshot reuse rewinds the LLC to cold before every
// repetition, so every repetition after the first is memo-served.
func TestLLCMemoRepetitions(t *testing.T) {
	w := testWorkload(0.9)
	for _, e := range goldenEngines {
		for _, shards := range []int{0, 1, 2} {
			cfg := server.DefaultConfig(e, 23)
			cfg.Shards = shards
			threeWays(t, fmt.Sprintf("%v/shards%d/mean", e, shards), cfg,
				func(c server.Config) (RunStats, error) {
					return ExecuteMeanCtx(context.Background(), c, w, server.AllFast(), 3, 0, Policy{})
				})
		}
	}
}

// TestLLCMemoWarmReentry runs the trace twice on one deployment without
// a rewind. The second run finds the LLC warm — memo-served requests
// left it as debt — so it must replay live, on the contents a live
// first run would have left, and report the cumulative hit rate.
func TestLLCMemoWarmReentry(t *testing.T) {
	w := testWorkload(0.9)
	twice := func(cfg server.Config) (RunStats, error) {
		d := server.NewDeployment(cfg)
		if err := d.Load(w.Dataset, server.AllSlow()); err != nil {
			return RunStats{}, err
		}
		first, err := RunCtx(context.Background(), d, w, 0)
		if err != nil {
			return RunStats{}, err
		}
		second, err := RunCtx(context.Background(), d, w, 0)
		d.FlushObs()
		if first.LLCHitRate == second.LLCHitRate {
			return RunStats{}, fmt.Errorf("second run's hit rate %v equals the cold first run's", second.LLCHitRate)
		}
		return second, err
	}
	for _, e := range goldenEngines {
		threeWays(t, e.String()+"/warm", server.DefaultConfig(e, 29), twice)
	}
}

// TestLLCMemoForeignDataset replays a trace on a deployment loaded with
// a different dataset of the same shape. Its cache references differ
// from the trace's own, so it must not build (or read) the trace's memo:
// a memo built from foreign footprints would poison every later run of
// the trace.
func TestLLCMemoForeignDataset(t *testing.T) {
	w := testWorkload(0.9)
	foreign := ycsb.Dataset{Records: append([]ycsb.Record(nil), w.Dataset.Records...)}
	for i := range foreign.Records {
		foreign.Records[i].Size /= 4
		foreign.TotalBytes += int64(foreign.Records[i].Size)
	}
	for _, e := range goldenEngines {
		cfg := server.DefaultConfig(e, 37)
		d := server.NewDeployment(cfg)
		if err := d.Load(foreign, server.AllSlow()); err != nil {
			t.Fatal(err)
		}
		if _, err := RunCtx(context.Background(), d, w, 0); err != nil {
			t.Fatal(err)
		}
		threeWays(t, e.String()+"/after-foreign", cfg,
			func(c server.Config) (RunStats, error) { return Execute(c, w, server.AllSlow()) })
	}
}

// TestLLCMemoBuiltOncePerEngine pins the memo's key and lifetime: after
// one execution per engine, the trace holds one bitmap per engine at the
// default LLC capacity, and later executions reuse it.
func TestLLCMemoBuiltOncePerEngine(t *testing.T) {
	w := testWorkload(0.9)
	pt := w.Packed()
	for _, e := range goldenEngines {
		cfg := server.DefaultConfig(e, 31)
		if _, err := Execute(cfg, w, server.AllFast()); err != nil {
			t.Fatal(err)
		}
		key := ycsb.OutcomeKey{Engine: int(e), Capacity: cfg.Machine.LLCBytes}
		bits := pt.Outcomes(key, func() []uint64 {
			t.Fatalf("%v: execution did not build the outcome memo", e)
			return nil
		})
		if len(bits) != (len(pt.Keys)+63)/64 {
			t.Fatalf("%v: memo holds %d words for %d requests", e, len(bits), len(pt.Keys))
		}
	}
}

// TestLLCMemoSteadyStateZeroAllocs pins that a memo-served pass
// allocates nothing once the memo is built: resolving the memo and
// serving the whole trace from it.
func TestLLCMemoSteadyStateZeroAllocs(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "alloc", Keys: 512, Requests: 4096,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 0.9, Sizes: ycsb.SizeFixed1KB, Seed: 9,
	})
	cfg := server.DefaultConfig(server.RedisLike, 3)
	cfg.NoiseSigma = 0 // keep the latency set closed across passes
	d := server.NewDeployment(cfg)
	if err := d.Load(w.Dataset, server.AllFast()); err != nil {
		t.Fatal(err)
	}
	tab := d.BatchTable()
	pt := w.Packed()
	classes := sizeClasses(w.Dataset.Records)
	a := newReplayAccum()
	ctx := context.Background()
	pass := func() {
		if err := replayBatchedChunk(ctx, d, tab, tab.Memo(w), pt.Keys, pt.Kinds, classes, a, 0, d.Clock(), 0, len(pt.Keys)); err != nil {
			t.Fatal(err)
		}
	}
	pass() // builds the memo and sizes every accumulator
	var mallocs uint64
	for i := 0; i < 5; i++ {
		if !d.ResetRun(int64(i)) { // rewinding allocates (noise stream); not measured
			t.Fatal("ResetRun refused")
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs != 0 {
		t.Fatalf("memo-served replay allocated %d times over 5 passes, want 0", mallocs)
	}
}
