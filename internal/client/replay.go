package client

// The replay driver (DESIGN.md §8). Every trace backing — a workload's
// materialized ops, a shard's packed sub-trace, an on-disk .mtrc
// stream — reaches the deployment the same way: as a sequence of
// frames of at most replayBlockOps requests (ycsb.Workload.Frames).
// The frame is the only unit the driver knows, and replayTrace is the
// one place that polls cancellation, checks the simulated budget,
// truncates the trace at a scheduled crash point and reports a
// timeout.
//
// Each frame is served through the batched replay kernel when it can be
// (read/write ops on live records), and per-op otherwise — deletes and
// re-inserting writes change store structure, which the precomputed
// cost table cannot price. The per-frame decision means one
// Delete-bearing frame in a 100M-op trace costs per-op replay for 4096
// requests, not the run.
//
// Bit-identity contract: a replay equals the whole-run per-op replay of
// the same ops. Read/write frames go through the kernel, bit-identical
// to the per-op path by the §12 construction; per-op frames interleave
// via the pause-sync handshake (server.ReplayTable.SyncEnginePauses /
// ResyncKernelPauses / Deployment.RetryBatchTable) so the engines' own
// accounting resumes exactly where the kernel's mirror left it and vice
// versa.

import (
	"context"
	"fmt"
	"io"

	"mnemo/internal/kvstore"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// replayBlockOps is the frame size of in-memory traces and the replay
// kernel's block size (server.ReplayBlockOps). One ctx poll per frame
// bounds wall-clock cancellation latency to microseconds (replay
// advances only simulated time) while keeping the poll off the per-op
// path.
const replayBlockOps = server.ReplayBlockOps

// memoFor resolves a run's LLC outcome memo. The memo and the live LLC
// model are bit-identical by contract; the differential tests swap this
// for a resolver that never memoizes, to drive the live kernel through
// the whole execution stack as their reference.
var memoFor = (*server.ReplayTable).Memo

// replayTrace drives the workload's trace through the deployment frame
// by frame, folding every response into the accumulators. budget is the
// run's simulated-time bound (0 = none), checked after every request;
// ep, when non-nil, is the adaptive run's epoch hook, called after each
// frame that ends an epoch short of the run's last request.
//
// A kernel frame reads its LLC hit/miss stream from the trace's outcome
// memo (server.ReplayTable.Memo) until the first frame that is not
// memo-served; from then on the live cache model decides.
func replayTrace(ctx context.Context, d *server.Deployment, w *ycsb.Workload, classes []uint8, a *replayAccum, budget simclock.Duration, ep *epochRun) error {
	fr, err := w.Frames()
	if err != nil {
		return fmt.Errorf("client: opening trace stream: %w", err)
	}
	total, crashAt := w.RequestCount(), d.CrashOp()
	end := total
	if crashAt >= 0 && crashAt < total {
		end = crashAt
	} else {
		crashAt = -1 // crash point beyond the trace: never fires
	}
	start := d.Clock()
	var maxClock simclock.Duration
	if budget > 0 {
		maxClock = start + budget
	}
	timeout := func(served int) error {
		return fmt.Errorf("%w after %d/%d requests (simulated %v > budget %v)",
			ErrRunTimeout, served, end, d.Clock()-start, budget)
	}

	t := d.BatchTable()
	batching := t != nil // retry re-pricing only if batching was ever on
	var lat []simclock.Duration
	var memo server.LLCMemo
	if t != nil {
		lat, memo = t.Block(), memoFor(t, w)
	}
	var dead []bool // records deleted by this run; nil until first Delete
	done := 0
	for crashAt < 0 || done < crashAt {
		if err := ctx.Err(); err != nil {
			return err
		}
		keys, kinds, rw, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("client: decoding trace frame at request %d: %w", done, err)
		}
		if crashAt >= 0 && done+len(keys) > crashAt {
			keys, kinds = keys[:crashAt-done], kinds[:crashAt-done]
		}
		if t != nil && rw && !touchesDead(dead, keys) {
			served := t.ServeMemo(memo, done, keys, kinds, maxClock, lat)
			for i := 0; i < served; i++ {
				a.observe(kvstore.OpKind(kinds[i]), int(classes[keys[i]]), float64(lat[i].Nanoseconds()))
			}
			if served < len(keys) {
				return timeout(done + served)
			}
		} else {
			memo = server.LLCMemo{}
			if t != nil {
				t.SyncEnginePauses()
			}
			// A frame is structural when it changed store structure: a
			// Delete that found its record, or a Write re-inserting a
			// record this run deleted. A migration may re-insert a
			// deleted record, so the Delete rule asks the store, not dead.
			structural := false
			for i, k := range keys {
				kind := kvstore.OpKind(kinds[i])
				res := d.DoIndex(int(k), kind)
				a.observe(kind, int(classes[k]), float64(res.Latency.Nanoseconds()))
				switch {
				case kind == kvstore.Delete:
					if dead == nil {
						dead = make([]bool, len(classes))
					}
					dead[k] = true
					structural = structural || res.Found
				case kind == kvstore.Write && dead != nil && dead[k]:
					dead[k] = false
					structural = true
				}
				if budget > 0 && d.Clock()-start > budget {
					return timeout(done + i + 1)
				}
			}
			if structural {
				d.MarkMutated()
				if batching {
					t = d.RetryBatchTable(dead)
				}
			} else if t != nil {
				t.ResyncKernelPauses()
			}
		}
		done += len(keys)
		if ep != nil {
			ep.tally(keys, kinds)
			if done < end && done%ep.per == 0 {
				ep.boundary(d)
				if budget > 0 && d.Clock()-start > budget {
					return timeout(done)
				}
				// A migration whose table patch failed leaves the kernel
				// off; the rest of the run then goes per-op.
				t = d.BatchTable()
			}
		}
		if t != nil {
			lat = t.Block()
		}
	}
	if done != end {
		return fmt.Errorf("client: trace stream ended after %d of %d requests", done, total)
	}
	if crashAt >= 0 {
		return d.CrashError()
	}
	return nil
}

// touchesDead reports whether a frame references a record this run
// deleted: its cost row is stale, and a write to it is a structural
// re-insert.
func touchesDead(dead []bool, keys []uint32) bool {
	if dead != nil {
		for _, k := range keys {
			if dead[k] {
				return true
			}
		}
	}
	return false
}
