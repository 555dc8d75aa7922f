package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"time"

	"mnemo"
	"mnemo/internal/kvstore"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

// Workload scales. consult and drift_adaptive run at the paper's Table
// III scale; cluster's key count is what pushes its store structures
// and LRU table past the host CPU's caches.
const (
	paperKeys       = 10_000
	paperRequests   = 100_000
	clusterKeys     = 100_000
	clusterRequests = 200_000
	slo             = 0.10 // the paper's 10% slowdown SLO
	// driftSLO is tight enough that every engine's advice keeps part of
	// the dataset in FastMem; at 10% memcachedlike is advised all-SlowMem
	// and adaptive tiering has nothing to migrate into.
	driftSLO        = 0.01
	validatePoints  = 6
	epochOps        = 4096
	migrationNsPerB = 0.5
	// Half of stream_churn's frames carry Deletes, each op of such a
	// frame becoming a Delete with probability churnDeleteProb.
	churnDeleteProb = 0.05
)

// cell is one (trace, engine) consultation the timed loop repeats.
type cell struct {
	Name     string
	W        *ycsb.Workload
	Opts     mnemo.Options
	Policies []string
	// Adaptive runs MeasureAdaptive at the advised point after the
	// profile.
	Adaptive bool
}

// prepared is one set-up's output: the cells, plus what the set-up
// timed on the way.
type prepared struct {
	Cells     []*cell
	Generate  time.Duration // ycsb generation (and CSV interchange)
	Write     time.Duration // .mtrc spill
	TracePath string        // spilled trace, "" when the workload has none
	// Identity is the workload's cross-path identity check, run once
	// per run outside the timed window; nil when it has none.
	Identity func(ctx context.Context) error
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	Name  string
	Build func(seed int64, dir string) (*prepared, error)
}

var workloads = []workloadDef{
	{"consult", buildConsult},
	{"stream_churn", buildStreamChurn},
	{"drift_adaptive", buildDriftAdaptive},
	{"cluster", buildCluster},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func generate(spec ycsb.Spec) (*ycsb.Workload, error) {
	w, err := ycsb.Generate(spec)
	if err != nil {
		return nil, err
	}
	w.Packed() // the packed trace is built once per workload; build it in set-up
	return w, nil
}

// engineCells makes one cell per engine over the same trace.
func engineCells(w *ycsb.Workload, base mnemo.Options, policies []string, adaptive bool) []*cell {
	var out []*cell
	for _, e := range mnemo.Engines() {
		o := base
		o.Store = e
		out = append(out, &cell{Name: w.Spec.Name + "/" + e.String(), W: w, Opts: o, Policies: policies, Adaptive: adaptive})
	}
	return out
}

// sameBaselines measures the baselines of w under two option sets and
// requires them to be identical.
func sameBaselines(ctx context.Context, what string, wa *mnemo.Workload, a mnemo.Options, wb *mnemo.Workload, b mnemo.Options) error {
	measure := func(w *mnemo.Workload, o mnemo.Options) (any, error) {
		s, err := mnemo.NewSession(w, o)
		if err != nil {
			return nil, err
		}
		return s.Measure(ctx)
	}
	ba, err := measure(wa, a)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	bb, err := measure(wb, b)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !reflect.DeepEqual(ba, bb) {
		return fmt.Errorf("%s: baselines differ", what)
	}
	return nil
}

// buildConsult: trending and edit_thumbnail at paper scale on all three
// engines, touch and mnemot compared on one measurement.
func buildConsult(seed int64, _ string) (*prepared, error) {
	start := time.Now()
	var traces []*ycsb.Workload
	for _, spec := range []ycsb.Spec{ycsb.Trending(seed), ycsb.EditThumbnail(seed + 1)} {
		w, err := generate(spec)
		if err != nil {
			return nil, err
		}
		traces = append(traces, w)
	}
	p := &prepared{Generate: time.Since(start)}
	base := mnemo.Options{Seed: seed, Runs: 3, SLO: slo}
	for _, w := range traces {
		p.Cells = append(p.Cells, engineCells(w, base, []string{"touch", "mnemot"}, false)...)
	}
	c := p.Cells[0]
	p.Identity = func(ctx context.Context) error {
		perOp := c.Opts
		perOp.DisableBatchReplay = true
		return sameBaselines(ctx, "per-op vs batched replay", c.W, c.Opts, c.W, perOp)
	}
	return p, nil
}

// churnWorkload builds stream_churn's trace: edit_thumbnail's shape with
// Deletes clustered into about half of the 4096-op frames. It goes
// through the CSV interchange format, as a user-provided trace would.
func churnWorkload(seed int64, keys, requests int) (*ycsb.Workload, error) {
	spec := ycsb.EditThumbnail(seed)
	spec.Name, spec.Keys, spec.Requests = "stream_churn", keys, requests
	w, err := ycsb.Generate(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	frames := (len(w.Ops) + trace.FrameOps - 1) / trace.FrameOps
	for _, f := range rng.Perm(frames)[:frames/2] {
		lo := f * trace.FrameOps
		for i := lo; i < min(lo+trace.FrameOps, len(w.Ops)); i++ {
			if rng.Float64() < churnDeleteProb {
				w.Ops[i].Kind = kvstore.Delete
			}
		}
	}
	var buf bytes.Buffer
	if err := w.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return mnemo.LoadWorkloadCSV(&buf)
}

// buildStreamChurn spills the churn trace to .mtrc and profiles it
// streamed from the file.
func buildStreamChurn(seed int64, dir string) (*prepared, error) {
	start := time.Now()
	inMem, err := churnWorkload(seed, paperKeys, paperRequests)
	if err != nil {
		return nil, err
	}
	p := &prepared{Generate: time.Since(start), TracePath: filepath.Join(dir, fmt.Sprintf("stream_churn-%d.mtrc", seed))}
	start = time.Now()
	if err := mnemo.WriteTrace(inMem, p.TracePath); err != nil {
		return nil, err
	}
	p.Write = time.Since(start)
	streamed, err := mnemo.OpenTrace(p.TracePath)
	if err != nil {
		return nil, err
	}
	base := mnemo.Options{Seed: seed, Runs: 1, SLO: slo}
	p.Cells = engineCells(streamed, base, []string{"touch", "mnemot"}, false)
	c := p.Cells[0]
	p.Identity = func(ctx context.Context) error {
		return sameBaselines(ctx, "streamed vs in-memory trace", c.W, c.Opts, inMem, c.Opts)
	}
	return p, nil
}

// buildDriftAdaptive: hot_drift with adaptive-freq migrating every
// epoch, migration charged on the simulated clock.
func buildDriftAdaptive(seed int64, _ string) (*prepared, error) {
	start := time.Now()
	w, err := generate(ycsb.HotDrift(seed))
	if err != nil {
		return nil, err
	}
	p := &prepared{Generate: time.Since(start)}
	base := mnemo.Options{Seed: seed, Runs: 1, SLO: driftSLO, Policy: "adaptive-freq",
		EpochOps: epochOps, MigrationCostPerByte: migrationNsPerB}
	p.Cells = engineCells(w, base, []string{"adaptive-freq"}, true)
	return p, nil
}

// buildCluster: timeline's shape at 100k keys on a two-shard dynamolike
// cluster.
func buildCluster(seed int64, _ string) (*prepared, error) {
	start := time.Now()
	spec := ycsb.Timeline(seed)
	spec.Keys, spec.Requests = clusterKeys, clusterRequests
	w, err := generate(spec)
	if err != nil {
		return nil, err
	}
	p := &prepared{Generate: time.Since(start)}
	o := mnemo.Options{Store: mnemo.DynamoLike, Seed: seed, Runs: 1, SLO: slo, Shards: 2}
	c := &cell{Name: w.Spec.Name + "/" + o.Store.String(), W: w, Opts: o, Policies: []string{"touch", "mnemot"}}
	p.Cells = []*cell{c}
	p.Identity = func(ctx context.Context) error {
		one, none := c.Opts, c.Opts
		one.Shards, none.Shards = 1, 0
		return sameBaselines(ctx, "Shards 1 vs unsharded", c.W, one, c.W, none)
	}
	return p, nil
}
