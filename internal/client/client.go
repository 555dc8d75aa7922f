// Package client is the YCSB-like load driver of the reproduction: it
// replays a workload trace against a hybrid deployment (routing every
// request to the server instance that owns the key, as the paper's
// modified YCSB core module does) and measures what the paper measures —
// total runtime, throughput, average read/write response times, and the
// tail latencies of Fig 8d/8e.
package client

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mnemo/internal/kvstore"
	"mnemo/internal/obs"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/stats"
	"mnemo/internal/ycsb"
)

// RunStats are the client-side measurements of one workload execution.
type RunStats struct {
	Workload string
	Engine   string

	Requests int
	Reads    int
	Writes   int

	Runtime          simclock.Duration
	ThroughputOpsSec float64

	// Average response times per request kind, in nanoseconds — the
	// FastReadTime/SlowReadTime/FastWriteTime/SlowWriteTime inputs of
	// Mnemo's estimate model when measured on a baseline placement.
	AvgReadNs  float64
	AvgWriteNs float64
	AvgNs      float64

	// Latency percentiles in nanoseconds (Fig 8c–8e).
	P50Ns, P95Ns, P99Ns, MaxNs float64

	// LLCHitRate is the record-cache hit fraction over the run.
	LLCHitRate float64

	// ReadBuckets and WriteBuckets break the averages down by
	// power-of-two record-size class, feeding the size-aware estimate
	// extension. Empty buckets are omitted.
	ReadBuckets, WriteBuckets []BucketStat

	// ReadLatency and WriteLatency carry the full per-size-class latency
	// histograms of the run, feeding the tail-latency estimation
	// extension (internal/core TailEstimator). Empty classes are
	// omitted.
	ReadLatency, WriteLatency []BucketHistogram

	// RunsRequested, RunsUsed, RunsRetried and Degraded summarize an
	// ExecuteMean* aggregate's resilience: repetitions requested, the
	// survivors the means were folded from, and retry attempts spent.
	// Degraded marks an aggregate computed from fewer runs than
	// requested — or, for a sharded run, from fewer shards than the
	// cluster holds. Single-run stats leave all four zero.
	RunsRequested, RunsUsed, RunsRetried int
	Degraded                             bool

	// ShardsFailed, ShardsHedged and ShardsRetried summarize a sharded
	// run's fault-domain remediation: shards dead after exhausting their
	// per-shard retries (skipped by the partial merge, within the
	// policy's shard fault budget), straggler shards speculatively
	// re-executed, and per-shard retry attempts spent. Aggregates sum
	// them across surviving repetitions. All zero off the fault-domain
	// path.
	ShardsFailed, ShardsHedged, ShardsRetried int
	// DegradedReasons carries the shard-attributed explanations of a
	// degraded result ("shard 3: server: injected crash fault …"), in
	// ascending shard order within each run.
	DegradedReasons []string

	// Epochs, MovesApplied, MigratedBytes and MigrationNs summarize an
	// adaptive run's online migration (DESIGN.md §15): epochs served,
	// records migrated between tiers, payload bytes copied, and the
	// simulated time charged for the copies. Aggregates sum them across
	// surviving repetitions. All zero on the static path.
	Epochs        int
	MovesApplied  int
	MigratedBytes int64
	MigrationNs   float64
	// EpochTraffic breaks the migration down per epoch (epochs where the
	// policy was consulted; the final epoch is not, since no requests
	// remain to recoup a migration). Aggregates merge rows by epoch.
	EpochTraffic []EpochTraffic
}

// EpochTraffic is one epoch's migration activity.
type EpochTraffic struct {
	Epoch  int
	Moves  int
	Bytes  int64
	CostNs float64
}

// BucketHistogram pairs a record-size class with the latency histogram
// of its requests.
type BucketHistogram struct {
	Bucket int
	Hist   *stats.Histogram
}

// HistFor returns the histogram of a size class, or nil if unobserved.
func HistFor(bhs []BucketHistogram, bucket int) *stats.Histogram {
	for _, bh := range bhs {
		if bh.Bucket == bucket {
			return bh.Hist
		}
	}
	return nil
}

// latencyHistParams are shared by every per-class histogram so mixtures
// across runs and classes are well defined.
const (
	latencyHistMin    = 100  // ns
	latencyHistGrowth = 1.02 // ≤2% quantile error
)

// histAccum collects per-bucket latency histograms during a run. It is a
// slice indexed by size class, so the per-op path does no map hashing;
// slots materialize lazily on first observation and the slice only grows
// while a new class is being discovered.
type histAccum struct {
	hists []*stats.Histogram // indexed by bucket; nil = unobserved
}

func (a *histAccum) add(bucket int, ns float64) {
	if bucket >= len(a.hists) {
		grown := make([]*stats.Histogram, bucket+1)
		copy(grown, a.hists)
		a.hists = grown
	}
	h := a.hists[bucket]
	if h == nil {
		h = stats.NewHistogram(latencyHistMin, latencyHistGrowth)
		a.hists[bucket] = h
	}
	h.Record(ns)
}

func (a *histAccum) histograms() []BucketHistogram {
	var out []BucketHistogram
	for b, h := range a.hists {
		if h != nil {
			out = append(out, BucketHistogram{Bucket: b, Hist: h})
		}
	}
	return out
}

// bucketStats derives the per-class count/mean breakdown from the class
// histograms, which track exact counts and sums as they record — so the
// replay loop maintains one accumulator per class instead of two.
func (a *histAccum) bucketStats() []BucketStat {
	var out []BucketStat
	for b, h := range a.hists {
		if h != nil && h.N() > 0 {
			out = append(out, BucketStat{Bucket: b, Count: int(h.N()), MeanNs: h.Mean()})
		}
	}
	return out
}

// countAndSum folds the class histograms' exact totals into one request
// count and latency sum.
func (a *histAccum) countAndSum() (int, float64) {
	n, sum := 0, 0.0
	for _, h := range a.hists {
		if h != nil {
			n += int(h.N())
			sum += h.Sum()
		}
	}
	return n, sum
}

// mergeHistograms folds run B's per-class histograms into run A's.
func mergeHistograms(a, b []BucketHistogram) []BucketHistogram {
	byBucket := map[int]*stats.Histogram{}
	for _, bh := range a {
		byBucket[bh.Bucket] = bh.Hist
	}
	for _, bh := range b {
		if h, ok := byBucket[bh.Bucket]; ok {
			h.Merge(bh.Hist)
		} else {
			byBucket[bh.Bucket] = bh.Hist
		}
	}
	out := make([]BucketHistogram, 0, len(byBucket))
	for bkt, h := range byBucket {
		out = append(out, BucketHistogram{Bucket: bkt, Hist: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// String summarizes the run for logs.
func (s RunStats) String() string {
	return fmt.Sprintf("%s/%s: %d ops in %v (%.0f ops/s, avg %.1fµs, p99 %.1fµs)",
		s.Engine, s.Workload, s.Requests, s.Runtime, s.ThroughputOpsSec,
		s.AvgNs/1000, s.P99Ns/1000)
}

// replayAccum is the per-run accumulator state of the replay loop, kept
// separate from RunStats assembly so the steady-state per-op cost — and
// its allocation count, pinned at zero by the client tests — is exactly
// the observe path below. One size-class histogram per request kind is
// the complete state: counts, sums, means and buckets all derive from
// the class histograms afterwards.
type replayAccum struct {
	readHists, writeHists histAccum
}

func newReplayAccum() *replayAccum { return &replayAccum{} }

// observe folds one served request into the accumulators, classified by
// its record's precomputed size class. Every request lands in exactly one
// size-class histogram; the run-level histogram is recovered afterwards by
// merging the classes, so the per-op path records each latency once
// instead of twice.
func (a *replayAccum) observe(kind kvstore.OpKind, bucket int, ns float64) {
	if kind == kvstore.Read {
		a.readHists.add(bucket, ns)
	} else {
		a.writeHists.add(bucket, ns)
	}
}

// sizeClasses computes each record's power-of-two size class once, so the
// replay loop reads a byte from an L1-resident table instead of chasing
// into the records array and re-deriving the bucket per request.
func sizeClasses(recs []ycsb.Record) []uint8 {
	classes := make([]uint8, len(recs))
	for i := range recs {
		classes[i] = uint8(SizeBucket(recs[i].Size))
	}
	return classes
}

// replayBlockOps is the replay block size shared by both replay paths,
// equal to the batched kernel's server.ReplayBlockOps. It replaces the
// per-op `i&4095 == 4095` cancellation poll of the original loop: one
// ctx check per 4096-request block bounds wall-clock cancellation
// latency to microseconds (replay advances only simulated time) while
// keeping every block-granularity branch — cancellation, and the choice
// between the budget-checking and unbudgeted inner loops — off the
// steady-state per-op path.
const replayBlockOps = server.ReplayBlockOps

// replay drives the workload trace through the deployment's
// index-addressed request path, folding every response into the
// accumulators. The loop body does no string work: requests address
// records by trace index, size classes come from the precomputed table,
// and the accumulators are slice-indexed.
func replay(d *server.Deployment, w *ycsb.Workload, classes []uint8, a *replayAccum) {
	_ = replayBounded(context.Background(), d, w.Ops, classes, a, 0)
}

// replayBounded is the per-operation replay path under a watchdog: a
// per-run budget in simulated time (0 = unbounded, checked every request
// so an injected stall is caught at the op where the clock jumped) and a
// cancellable context, polled once per replayBlockOps-request block. The
// common unbudgeted case runs an inner loop with no per-op checks at
// all; both variants stay allocation-free.
func replayBounded(ctx context.Context, d *server.Deployment, ops []ycsb.Op, classes []uint8, a *replayAccum, budget simclock.Duration) error {
	return replayBoundedChunk(ctx, d, ops, classes, a, budget, d.Clock(), 0, len(ops))
}

// replayBoundedChunk is the per-operation replay of one trace chunk
// inside a larger run: the budget is measured against the run's start
// clock and progress is reported in run-global request indices, so an
// epoch-chunked run times out at the same request, with the same
// message, as an unchunked one. replayBounded is the whole-trace case
// (start = now, done = 0, total = len(ops)).
func replayBoundedChunk(ctx context.Context, d *server.Deployment, ops []ycsb.Op, classes []uint8, a *replayAccum, budget simclock.Duration, start simclock.Duration, done, total int) error {
	for blk := 0; blk < len(ops); blk += replayBlockOps {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := blk + replayBlockOps
		if end > len(ops) {
			end = len(ops)
		}
		if budget <= 0 {
			for _, op := range ops[blk:end] {
				res := d.DoIndex(op.Key, op.Kind)
				a.observe(op.Kind, int(classes[op.Key]), float64(res.Latency.Nanoseconds()))
			}
			continue
		}
		for i := blk; i < end; i++ {
			op := ops[i]
			res := d.DoIndex(op.Key, op.Kind)
			a.observe(op.Kind, int(classes[op.Key]), float64(res.Latency.Nanoseconds()))
			if d.Clock()-start > budget {
				return fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
					ErrRunTimeout, done+i+1, total, d.Clock()-start, budget)
			}
		}
	}
	return nil
}

// replayBatched drives the workload through the deployment's batched
// replay kernel: the packed struct-of-arrays trace is served one
// replayBlockOps block at a time by ReplayTable.Serve, and the returned
// per-request latencies are folded into the accumulators afterwards.
// Cancellation is polled per block, like replayBounded; the simulated
// budget becomes an absolute clock bound the kernel checks after each
// request, so a budget-tripping run reports the same request index, the
// same clock reading — and, being built from the same pricing constants
// and the same noise draws, the same latencies — as the per-op path.
func replayBatched(ctx context.Context, d *server.Deployment, t *server.ReplayTable, keys []uint32, kinds []uint8, classes []uint8, a *replayAccum, budget simclock.Duration) error {
	return replayBatchedChunk(ctx, d, t, server.LLCMemo{}, keys, kinds, classes, a, budget, d.Clock(), 0, len(keys))
}

// replayBatchedChunk is the batched replay of one trace chunk inside a
// larger run, with the budget anchored at the run's start clock and
// progress reported in run-global request indices — the batched twin of
// replayBoundedChunk. A non-zero memo (a whole run served from its LLC
// outcome memo; keys/kinds then start at the trace's request 0) routes
// every block through ReplayTable.ServeMemo.
func replayBatchedChunk(ctx context.Context, d *server.Deployment, t *server.ReplayTable, memo server.LLCMemo, keys []uint32, kinds []uint8, classes []uint8, a *replayAccum, budget simclock.Duration, start simclock.Duration, done, total int) error {
	var maxClock simclock.Duration
	if budget > 0 {
		maxClock = start + budget
	}
	lat := t.Block()
	for blk := 0; blk < len(keys); blk += replayBlockOps {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := blk + replayBlockOps
		if end > len(keys) {
			end = len(keys)
		}
		bkeys, bkinds := keys[blk:end], kinds[blk:end]
		served := t.ServeMemo(memo, blk, bkeys, bkinds, maxClock, lat)
		for i := 0; i < served; i++ {
			a.observe(kvstore.OpKind(bkinds[i]), int(classes[bkeys[i]]), float64(lat[i].Nanoseconds()))
		}
		if served < len(bkeys) {
			return fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
				ErrRunTimeout, done+blk+served, total, d.Clock()-start, budget)
		}
	}
	return nil
}

// mergedHistogram folds the per-size-class histograms of both request
// kinds into one run-level histogram. Since each request was recorded in
// exactly one class, the merged counts, extrema and quantiles equal those
// of a histogram fed directly per request.
func mergedHistogram(groups ...[]BucketHistogram) *stats.Histogram {
	h := stats.NewHistogram(latencyHistMin, latencyHistGrowth)
	for _, g := range groups {
		for _, bh := range g {
			h.Merge(bh.Hist)
		}
	}
	return h
}

// Run replays the workload trace against an already-loaded deployment.
func Run(d *server.Deployment, w *ycsb.Workload) RunStats {
	st, err := RunCtx(context.Background(), d, w, 0)
	if err != nil {
		// Unreachable: no budget and an uncancellable context.
		panic(err)
	}
	return st
}

// RunCtx is Run with cancellation and a per-run simulated-time budget
// (0 = unbounded). A run cut off by either returns the error and no
// stats: partial measurements are discarded, never folded into means.
//
// A deployment fated to crash mid-run (FaultSpec.CrashProb) serves the
// trace prefix before its crash point — burning simulated time and
// telemetry like a dying server — and then fails with a *FaultError of
// kind FaultCrash. A timeout or cancellation striking inside the prefix
// wins over the scheduled crash, first-to-fire.
func RunCtx(ctx context.Context, d *server.Deployment, w *ycsb.Workload, budget simclock.Duration) (RunStats, error) {
	start := d.Clock()
	a := newReplayAccum()
	classes := sizeClasses(w.Dataset.Records)
	var tel epochTelemetry
	var err error
	if src, epochOps := d.AdaptiveSpec(); src != nil && epochOps > 0 {
		if w.Stream != nil {
			// Epoch chunking needs random access into the trace to
			// re-run boundary analysis; a streamed trace has none.
			return RunStats{}, fmt.Errorf("client: adaptive tiering (EpochOps) does not support streamed traces")
		}
		tel, err = replayEpochs(ctx, d, src, epochOps, w, classes, a, budget)
	} else {
		err = replayStatic(ctx, d, w, classes, a, budget)
	}
	if err != nil {
		return RunStats{}, err
	}
	requests := w.RequestCount()
	runtime := d.Clock() - start
	reads, readSum := a.readHists.countAndSum()
	writes, writeSum := a.writeHists.countAndSum()
	out := RunStats{
		Workload: w.Spec.Name,
		Engine:   d.Engine().String(),
		Requests: requests,
		Reads:    reads,
		Writes:   writes,
		Runtime:  runtime,
	}
	if runtime > 0 {
		out.ThroughputOpsSec = float64(requests) / runtime.Seconds()
	}
	out.ReadBuckets = a.readHists.bucketStats()
	out.WriteBuckets = a.writeHists.bucketStats()
	out.ReadLatency = a.readHists.histograms()
	out.WriteLatency = a.writeHists.histograms()
	hist := mergedHistogram(out.ReadLatency, out.WriteLatency)
	if reads > 0 {
		out.AvgReadNs = readSum / float64(reads)
	}
	if writes > 0 {
		out.AvgWriteNs = writeSum / float64(writes)
	}
	out.AvgNs = hist.Mean()
	out.P50Ns = hist.Quantile(0.50)
	out.P95Ns = hist.Quantile(0.95)
	out.P99Ns = hist.Quantile(0.99)
	out.MaxNs = hist.Max()
	out.LLCHitRate = d.LLCHitRate()
	out.Epochs = tel.epochs
	out.MovesApplied = tel.moves
	out.MigratedBytes = tel.bytes
	out.MigrationNs = tel.costNs
	out.EpochTraffic = tel.traffic
	return out, nil
}

// memoFor resolves a batched run's LLC outcome memo. The memo and the
// live LLC model are bit-identical by contract; the differential tests
// swap this for a resolver that never memoizes, to drive the live
// kernel through the whole execution stack as their reference.
var memoFor = (*server.ReplayTable).Memo

// replayStatic is the legacy single-placement replay — the whole trace
// in one pass, batched when the deployment and trace support it. It is
// the EpochOps=0 path and stays bit-identical to the pre-adaptive stack.
// A batched run on a cold LLC reads its hit/miss stream from the
// trace's LLC outcome memo (server.ReplayTable.Memo) instead of
// re-running the cache model.
func replayStatic(ctx context.Context, d *server.Deployment, w *ycsb.Workload, classes []uint8, a *replayAccum, budget simclock.Duration) error {
	if w.Stream != nil {
		return replayStream(ctx, d, w, classes, a, budget)
	}
	crashAt := d.CrashOp()
	var err error
	if t := d.BatchTable(); t != nil && w.Packed().Batchable() {
		pt := w.Packed()
		keys, kinds := pt.Keys, pt.Kinds
		if crashAt >= 0 && crashAt < len(keys) {
			keys, kinds = keys[:crashAt], kinds[:crashAt]
		} else {
			crashAt = -1 // crash point beyond the trace: never fires
		}
		err = replayBatchedChunk(ctx, d, t, memoFor(t, w), keys, kinds, classes, a, budget, d.Clock(), 0, len(keys))
	} else if w.Ops == nil && w.RequestCount() > 0 {
		// A packed-only trace (a shard partitioner sub-workload) cannot
		// drive the per-operation path; failing beats silently replaying
		// zero requests.
		return fmt.Errorf("client: packed-only trace requires the batched replay path")
	} else {
		ops := w.Ops
		if crashAt >= 0 && crashAt < len(ops) {
			ops = ops[:crashAt]
		} else {
			crashAt = -1
		}
		err = replayBounded(ctx, d, ops, classes, a, budget)
	}
	if err == nil && crashAt >= 0 {
		err = d.CrashError()
	}
	return err
}

// Execute builds a fresh deployment, loads the dataset under the given
// placement (the untimed load phase) and replays the trace.
func Execute(cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	return ExecuteCtx(context.Background(), cfg, w, p)
}

// ExecuteCtx is Execute with cancellation. It also honors the config's
// hardening knobs: a deployment fated to fail by cfg.Fault returns its
// *server.FaultError before loading (a dead server is noticed at connect
// time), and cfg.RunTimeout bounds the replay in simulated time.
//
// When cfg.Obs is set, each execution journals measurement start/finish
// (or timeout) events and publishes run/op counters; the deployment's
// own counters are flushed even when the replay is cut off mid-run, so
// partial runs stay observable.
// With cfg.Shards ≥ 1 execution routes through the consistent-hash
// cluster (sharded.go); Shards=1 is bit-identical to the unsharded
// path, per the golden equivalence tests.
func ExecuteCtx(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, error) {
	if cfg.Shards >= 1 {
		st, _, err := executeShardedFresh(ctx, cfg, w, p, Policy{})
		return st, err
	}
	st, _, err := executeFresh(ctx, cfg, w, p)
	return st, err
}

// executeFresh is ExecuteCtx returning the deployment it built, so
// callers that run the workload repeatedly (ExecuteMean's repetitions)
// can keep a batch-capable deployment and rewind it with executeReused
// instead of re-populating the store per run. The deployment is non-nil
// exactly when Load succeeded — including runs that then timed out,
// which leave the deployment reusable.
func executeFresh(ctx context.Context, cfg server.Config, w *ycsb.Workload, p server.Placement) (RunStats, *server.Deployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return RunStats{}, nil, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	d := server.NewDeployment(cfg)
	if err := d.InjectedFailure(); err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, nil, err
	}
	if err := d.Load(w.Dataset, p); err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, nil, err
	}
	st, err := runAndFlush(ctx, cfg, w, d)
	return st, d, err
}

// executeReused is executeFresh against a deployment kept from an
// earlier repetition: the populated store is rewound to its post-Load
// snapshot under the new seed (server.Deployment.ResetRun) instead of
// being rebuilt. The event and counter sequence — measurement start,
// deployment counted, fault fates journaled, run counters — is emitted
// in the fresh path's order, so an observer cannot tell the two paths
// apart. Valid only for deployments cached via canReuse.
func executeReused(ctx context.Context, cfg server.Config, w *ycsb.Workload, d *server.Deployment) (RunStats, error) {
	if err := ctx.Err(); err != nil {
		return RunStats{}, err
	}
	sink := cfg.Obs
	sink.Eventf(obs.EventMeasureStart, "client", 0, "%s on %s (seed %d)",
		w.Spec.Name, cfg.Engine, cfg.Seed)
	if !d.ResetRun(cfg.Seed) {
		return RunStats{}, fmt.Errorf("client: cached deployment lost its batch table")
	}
	if err := d.InjectedFailure(); err != nil {
		sink.Counter("mnemo_client_run_failures_total").Inc()
		return RunStats{}, err
	}
	return runAndFlush(ctx, cfg, w, d)
}

// canReuse reports whether a deployment that just executed this workload
// can serve further repetitions via ResetRun: the replay must have gone
// through the batched kernel (the per-op path mutates engine state the
// snapshot does not cover), and the placement must not have migrated
// mid-run (ApplyMoves leaves the store contents diverged from the
// post-Load snapshot, so adaptive runs that moved records rebuild fresh).
func canReuse(d *server.Deployment, w *ycsb.Workload) bool {
	return d != nil && !d.Migrated() && d.BatchTable() != nil && w.Packed().Batchable()
}

// runAndFlush is the shared back half of the execute paths: the bounded
// replay, the post-run telemetry flush (covering complete and cut-off
// replays alike) and the run-level counters and journal events.
func runAndFlush(ctx context.Context, cfg server.Config, w *ycsb.Workload, d *server.Deployment) (RunStats, error) {
	sink := cfg.Obs
	st, err := RunCtx(ctx, d, w, cfg.RunTimeout)
	d.FlushObs() // publish op/LLC counts of complete AND cut-off replays
	if err != nil {
		if errors.Is(err, ErrRunTimeout) {
			sink.Counter("mnemo_client_run_timeouts_total").Inc()
			sink.Eventf(obs.EventTimeout, "client", d.Clock(), "%s on %s: %v",
				w.Spec.Name, cfg.Engine, err)
		} else {
			sink.Counter("mnemo_client_run_failures_total").Inc()
		}
		return st, err
	}
	sink.Counter("mnemo_client_runs_total").Inc()
	sink.Counter("mnemo_client_ops_total").Add(int64(st.Requests))
	sink.Counter("mnemo_client_reads_total").Add(int64(st.Reads))
	sink.Counter("mnemo_client_writes_total").Add(int64(st.Writes))
	sink.Eventf(obs.EventMeasureEnd, "client", st.Runtime, "%s on %s: %d ops, %.0f ops/s",
		w.Spec.Name, cfg.Engine, st.Requests, st.ThroughputOpsSec)
	return st, err
}

// ExecuteMean runs the workload `runs` times with distinct noise seeds
// and returns the per-field means — the paper reports "the mean of
// multiple experiment runs". Percentiles are averaged across runs.
// Repetitions execute in parallel across a bounded worker pool; see
// ExecuteMeanWorkers for the determinism contract.
func ExecuteMean(cfg server.Config, w *ycsb.Workload, p server.Placement, runs int) (RunStats, error) {
	return ExecuteMeanWorkers(cfg, w, p, runs, 0)
}

// ExecuteMeanWorkers is ExecuteMean with an explicit worker bound
// (≤ 0 = GOMAXPROCS). Each repetition is an independent simulation —
// its own deployment, noise stream seeded from the run index, and
// accumulators — and results are folded in run-index order, so the
// returned RunStats are bit-identical for every worker count: workers=1
// is the serial reference execution of the same code path.
func ExecuteMeanWorkers(cfg server.Config, w *ycsb.Workload, p server.Placement, runs, workers int) (RunStats, error) {
	return ExecuteMeanCtx(context.Background(), cfg, w, p, runs, workers, Policy{})
}
