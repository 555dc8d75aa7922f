package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mnemo"
	"mnemo/internal/client"
	"mnemo/internal/core"
	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/registry"
	"mnemo/internal/server"
	"mnemo/internal/shard"
	"mnemo/internal/simclock"
	"mnemo/internal/stats"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// frame is one 4096-op slice of a trace; rw marks a frame free of
// Deletes, the batched kernel's precondition.
type frame struct {
	keys  []uint32
	kinds []uint8
	rw    bool
}

// framesOf materializes the trace as frames, whatever its backing.
func framesOf(w *ycsb.Workload) ([]frame, error) {
	var out []frame
	if w.Stream != nil {
		it, err := w.Stream.Frames()
		if err != nil {
			return nil, err
		}
		for {
			keys, kinds, rw, err := it.Next()
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			if err != nil {
				return nil, err
			}
			out = append(out, frame{append([]uint32(nil), keys...), append([]uint8(nil), kinds...), rw})
		}
	}
	pt := w.Packed()
	if pt == nil {
		return nil, fmt.Errorf("workload %s has no packed trace", w.Spec.Name)
	}
	for lo := 0; lo < len(pt.Keys); lo += trace.FrameOps {
		hi := min(lo+trace.FrameOps, len(pt.Keys))
		f := frame{pt.Keys[lo:hi], pt.Kinds[lo:hi], true}
		for _, k := range f.kinds {
			if kvstore.OpKind(k) == kvstore.Delete {
				f.rw = false
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// prober times direct calls into single layers, one span per call.
type prober struct {
	ctx    context.Context
	tr     *tracer
	parent int
	vals   map[string][]float64
}

// timed runs fn under a span named after the metric and returns its
// host duration.
func (p *prober) timed(metric string, fn func() error) (time.Duration, error) {
	sp := p.tr.start("probe."+metric, p.parent, 0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	p.tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("%s: %w", metric, err)
	}
	return d, nil
}

func (p *prober) add(metric string, v float64) { p.vals[metric] = append(p.vals[metric], v) }

func perReq(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// probeReps is how many timed passes a replay probe takes the median of.
const probeReps = 3

// probeCell measures the replay layers — load, cost table, kernel,
// reset, client driver, per-op path, noise, LLC model, histogram,
// migration and the repeated-measurement driver — on one cell's trace,
// engine and advised placement.
func (p *prober) probeCell(c *cell, ref *outcome) error {
	sess, err := mnemo.NewSession(c.W, c.Opts)
	if err != nil {
		return err
	}
	cfg := sess.Config()
	plain := cfg.Server
	plain.Shards, plain.Adaptive, plain.EpochOps, plain.Obs = 0, nil, 0, nil
	placement := ref.Placements[0]
	frames, err := framesOf(c.W)
	if err != nil {
		return err
	}
	var ops, rwOps int
	for _, f := range frames {
		ops += len(f.keys)
		if f.rw {
			rwOps += len(f.keys)
		}
	}

	d := server.NewDeployment(plain)
	t, err := p.timed("server.load_ms", func() error { return d.Load(c.W.Dataset, placement) })
	if err != nil {
		return err
	}
	p.add("server.load_ms", ms(t))
	var tab *server.ReplayTable
	t, _ = p.timed("server.table_build_ms", func() error {
		tab = d.BatchTable()
		return nil
	})
	if tab == nil {
		return fmt.Errorf("%s: engine offers no batched replay table", c.Name)
	}
	p.add("server.table_build_ms", ms(t))
	p.add("server.batched_req_frac", float64(rwOps)/float64(ops))

	// An untimed pass first touches the cost table and the stores; the
	// timed passes, each after a rewind, see the warm state a repeated
	// measurement sees. Each time is the median of probeReps passes.
	lats := make([]simclock.Duration, 0, rwOps)
	serve := func() error {
		lats = lats[:0]
		for _, f := range frames {
			if f.rw {
				block := tab.Block()[:len(f.keys)]
				tab.Serve(f.keys, f.kinds, 0, block)
				lats = append(lats, block...)
			}
		}
		return nil
	}
	serve()
	var resetUs, serveNs []float64
	for rep := int64(1); rep <= probeReps; rep++ {
		t, err := p.timed("server.reset_us", func() error {
			if !d.ResetRun(plain.Seed + rep) {
				return fmt.Errorf("deployment refused to rewind")
			}
			return nil
		})
		if err != nil {
			return err
		}
		resetUs = append(resetUs, t.Seconds()*1e6)
		t, _ = p.timed("server.serve_ns_per_req", serve)
		serveNs = append(serveNs, perReq(t, rwOps))
	}
	p.add("server.reset_us", median(resetUs))
	p.add("server.serve_ns_per_req", median(serveNs))

	h := stats.NewHistogram(100, 1.02)
	t, _ = p.timed("stats.hist_add_ns", func() error {
		for _, l := range lats {
			h.Record(float64(l))
		}
		return nil
	})
	p.add("stats.hist_add_ns", perReq(t, len(lats)))

	// A trace with Deletes changes the stores as it replays, so its runs
	// start from a fresh Load, as the client's own repetitions do.
	var runNs []float64
	for rep := int64(1); rep <= probeReps; rep++ {
		if c.W.Packed().Batchable() {
			d.ResetRun(plain.Seed + rep)
		} else {
			d = server.NewDeployment(plain)
			if err := d.Load(c.W.Dataset, placement); err != nil {
				return err
			}
		}
		t, err := p.timed("client.run_ns_per_req", func() error {
			_, err := client.RunCtx(p.ctx, d, c.W, 0)
			return err
		})
		if err != nil {
			return err
		}
		runNs = append(runNs, perReq(t, ops))
	}
	p.add("client.run_ns_per_req", median(runNs))

	d2 := server.NewDeployment(plain)
	if err := d2.Load(c.W.Dataset, placement); err != nil {
		return err
	}
	doIndex := func() error {
		for _, f := range frames {
			for i, k := range f.keys {
				d2.DoIndex(int(k), kvstore.OpKind(f.kinds[i]))
			}
		}
		return nil
	}
	doIndex()
	t, _ = p.timed("server.doindex_ns_per_req", doIndex)
	doIndexNs := perReq(t, ops)
	p.add("server.doindex_ns_per_req", doIndexNs)
	// The client's own cost is what it adds over the server paths it
	// dispatches to: the kernel on Delete-free frames, DoIndex on the
	// rest.
	frac := float64(rwOps) / float64(ops)
	p.add("client.driver_ns_per_req", median(runNs)-(frac*median(serveNs)+(1-frac)*doIndexNs))

	noise := server.NewNoise(plain.NoiseSigma, plain.Seed)
	var sink float64
	t, _ = p.timed("server.noise_ns_per_draw", func() error {
		for i := 0; i < ops; i++ {
			sink += noise.Factor()
		}
		return nil
	})
	if sink <= 0 {
		return fmt.Errorf("noise factors sum to %v", sink)
	}
	p.add("server.noise_ns_per_draw", perReq(t, ops))

	llc := memsim.NewLRUCache(plain.Machine.LLCBytes)
	recs := c.W.Dataset.Records
	t, _ = p.timed("memsim.llc_access_ns", func() error {
		for _, f := range frames {
			for _, k := range f.keys {
				llc.Access(memsim.RecordRef{ID: recs[k].ID, Bytes: recs[k].Size})
			}
		}
		return nil
	})
	p.add("memsim.llc_access_ns", perReq(t, ops))

	if err := p.probeMoves(c, plain, placement); err != nil {
		return err
	}

	execCfg := cfg.Server
	execCfg.Obs = nil
	t, err = p.timed("client.execute_ms", func() error {
		_, err := client.ExecuteMeanCtx(p.ctx, execCfg, c.W, placement, cfg.Runs, 0, cfg.Resilience)
		return err
	})
	if err != nil {
		return err
	}
	p.add("client.execute_ms", ms(t))

	for _, name := range []string{"touch", "mnemot", "adaptive-freq"} {
		pol, err := registry.New(name, plain.Seed)
		if err != nil {
			return err
		}
		metric := "registry.order_ms." + name
		t, err = p.timed(metric, func() error {
			_, err := pol.Order(p.ctx, c.W)
			return err
		})
		if err != nil {
			return err
		}
		p.add(metric, ms(t))
	}
	return nil
}

// probeMoves times one migration step: a swap of a tenth of the
// dataset across the advised placement's tier boundary, re-pricing the
// batched table as an epoch boundary does.
func (p *prober) probeMoves(c *cell, plain server.Config, placement server.Placement) error {
	plain.MigrationCostPerByte = migrationNsPerB
	d := server.NewDeployment(plain)
	if err := d.Load(c.W.Dataset, placement); err != nil {
		return err
	}
	d.BatchTable()
	n := len(c.W.Dataset.Records)
	var fast, slow []int
	for i := 0; i < n; i++ {
		if placement.TierOfIndex(i) == memsim.Fast {
			fast = append(fast, i)
		} else {
			slow = append(slow, i)
		}
	}
	m := min(len(fast), len(slow), n/10)
	moves := make([]server.Move, 0, 2*m)
	for i := 0; i < m; i++ {
		moves = append(moves, server.Move{Index: fast[i], To: memsim.Slow}, server.Move{Index: slow[i], To: memsim.Fast})
	}
	var res server.MigrationResult
	t, _ := p.timed("server.apply_moves_ms", func() error {
		res = d.ApplyMoves(moves)
		return nil
	})
	p.add("server.apply_moves_ms", ms(t))
	p.add("server.moved_records", float64(res.Moves))
	return nil
}

// probeValidate times the same validation sweep serially and on the
// default worker pool.
func (p *prober) probeValidate(c *cell, ref *outcome) error {
	sess, err := mnemo.NewSession(c.W, c.Opts)
	if err != nil {
		return err
	}
	cfg := sess.Config()
	rep := ref.Reports[0]
	var ts [2]time.Duration
	for i, workers := range []int{1, 0} {
		ts[i], err = p.timed("pool.validate_speedup", func() error {
			_, err := core.ValidateWorkers(p.ctx, cfg, c.W, rep.Curve, rep.Ordering, validatePoints, workers)
			return err
		})
		if err != nil {
			return err
		}
	}
	p.add("pool.validate_speedup", ts[0].Seconds()/ts[1].Seconds())
	return nil
}

// probeShards times the cluster layers: the consistent-hash split, and
// the shards' replays one after another versus side by side.
func (p *prober) probeShards(c *cell, ref *outcome) error {
	sess, err := mnemo.NewSession(c.W, c.Opts)
	if err != nil {
		return err
	}
	sc := sess.Config().Server
	sc.Obs = nil
	var part *shard.Partition
	t, err := p.timed("shard.split_ms", func() (err error) {
		part, err = shard.Split(c.W, sc.Shards, sc.VirtualNodes, false)
		return err
	})
	if err != nil {
		return err
	}
	p.add("shard.split_ms", ms(t))
	var maxReq, sumReq int
	for _, s := range part.Subs {
		maxReq = max(maxReq, s.Requests)
		sumReq += s.Requests
	}
	p.add("shard.max_over_mean_req", float64(maxReq)*float64(len(part.Subs))/float64(sumReq))

	sd, err := server.NewShardedDeployment(sc, c.W)
	if err != nil {
		return err
	}
	if err := sd.Load(ref.Placements[0]); err != nil {
		return err
	}
	runShard := func(s int) error {
		_, err := client.RunCtx(p.ctx, sd.Dep(s), sd.Sub(s), 0)
		return err
	}
	rewind := func() error {
		if !sd.ResetRun(sc.Seed) {
			return fmt.Errorf("sharded deployment refused to rewind")
		}
		return nil
	}
	for s := 0; s < sd.Shards(); s++ { // untimed pass: first touches of the populated stores
		if err := runShard(s); err != nil {
			return err
		}
	}
	var effs []float64
	for rep := 0; rep < probeReps; rep++ {
		if err := rewind(); err != nil {
			return err
		}
		var serial time.Duration
		for s := 0; s < sd.Shards(); s++ {
			t, err := p.timed("shard.run_serial", func() error { return runShard(s) })
			if err != nil {
				return err
			}
			serial += t
		}
		if err := rewind(); err != nil {
			return err
		}
		errs := make([]error, sd.Shards())
		t, _ := p.timed("shard.run_parallel", func() error {
			var wg sync.WaitGroup
			for s := 0; s < sd.Shards(); s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[s] = runShard(s)
				}()
			}
			wg.Wait()
			return nil
		})
		if err := errors.Join(errs...); err != nil {
			return err
		}
		effs = append(effs, serial.Seconds()/(float64(sd.Shards())*t.Seconds()))
	}
	p.add("shard.parallel_eff", median(effs))
	return nil
}

// probeTraceFile decodes the spilled trace frame by frame.
func (p *prober) probeTraceFile(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	f, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	var frames int
	t, err := p.timed("trace.frames", func() error {
		it, err := f.Frames()
		if err != nil {
			return err
		}
		for {
			if _, _, _, err := it.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			frames++
		}
	})
	if err != nil {
		return err
	}
	p.add("trace.frames", float64(frames))
	p.add("trace.frame_us", t.Seconds()*1e6/float64(frames))
	p.add("trace.decode_mb_per_s", float64(st.Size())/(1<<20)/t.Seconds())
	return nil
}

// probeLayers runs every probe that applies to the prepared workload and
// returns each per-layer probe metric averaged over the cells; layers
// the workload does not exercise report 0.
func probeLayers(ctx context.Context, p *prepared, refs map[*cell]*outcome, tr *tracer) (map[string]float64, error) {
	root := tr.start("layers", 0, 0)
	defer tr.end(root)
	pr := &prober{ctx: ctx, tr: tr, parent: root, vals: map[string][]float64{}}
	for _, c := range p.Cells {
		if err := pr.probeCell(c, refs[c]); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	first := p.Cells[0]
	if err := pr.probeValidate(first, refs[first]); err != nil {
		return nil, err
	}
	if first.Opts.Shards >= 2 {
		if err := pr.probeShards(first, refs[first]); err != nil {
			return nil, err
		}
	}
	if p.TracePath != "" {
		if err := pr.probeTraceFile(p.TracePath); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for _, name := range []string{"trace.frames", "trace.frame_us", "trace.decode_mb_per_s",
		"shard.split_ms", "shard.max_over_mean_req", "shard.parallel_eff"} {
		out[name] = 0
	}
	for name, vs := range pr.vals {
		out[name] = mean(vs)
	}
	return out, nil
}
