package client

import (
	"mnemo/internal/kvstore"
	"mnemo/internal/server"
)

// Adaptive replay — DESIGN.md §15.
//
// Epochs are a frame-boundary hook of the one replay driver
// (replayTrace): an epoch is a whole number of frames, and after the
// frame that ends one the hook hands the epoch's per-record access
// counts to the run's EpochObserver and applies the migrations it
// answers with — charged to the simulated clock — before the next frame
// starts.
//
// The final epoch ends the run without a trailing Observe: no requests
// remain to recoup a migration, so consulting the policy there could
// only burn simulated time. Migration cost counts against RunTimeout
// exactly like request service time.

// epochRun is one adaptive run's epoch state and migration accounting,
// folded into RunStats by RunCtx.
type epochRun struct {
	obsv          server.EpochObserver
	per           int     // epoch length in requests, a whole number of frames
	reads, writes []int32 // this epoch's per-record access counts
	epochs        int
	moves         int
	bytes         int64
	costNs        float64
	traffic       []EpochTraffic
}

// mergeEpochTraffic folds run B's per-epoch migration rows into run A's,
// summing rows that share an epoch index. Both inputs are in ascending
// epoch order (the replay appends rows as epochs complete), and the
// merge preserves that order.
func mergeEpochTraffic(a, b []EpochTraffic) []EpochTraffic {
	if len(b) == 0 {
		return a
	}
	byEpoch := map[int]int{} // epoch → index in out
	out := append([]EpochTraffic(nil), a...)
	for i, row := range out {
		byEpoch[row.Epoch] = i
	}
	for _, row := range b {
		if i, ok := byEpoch[row.Epoch]; ok {
			out[i].Moves += row.Moves
			out[i].Bytes += row.Bytes
			out[i].CostNs += row.CostNs
		} else {
			byEpoch[row.Epoch] = len(out)
			out = append(out, row)
		}
	}
	return out
}

// newEpochRun starts an adaptive run's epoch hook, rounding the
// configured epoch length up to a whole number of replay frames.
func newEpochRun(obsv server.EpochObserver, epochOps, records int) *epochRun {
	frames := (epochOps + replayBlockOps - 1) / replayBlockOps
	return &epochRun{obsv: obsv, per: frames * replayBlockOps,
		reads: make([]int32, records), writes: make([]int32, records)}
}

// tally counts one served frame's accesses into the current epoch.
func (e *epochRun) tally(keys []uint32, kinds []uint8) {
	for i, k := range keys {
		if kinds[i] == uint8(kvstore.Read) {
			e.reads[k]++
		} else {
			e.writes[k]++
		}
	}
}

// boundary ends the current epoch: the observer sees its counts and
// the deployment applies the moves it answers with.
func (e *epochRun) boundary(d *server.Deployment) {
	epoch := e.epochs
	e.epochs++
	moves := e.obsv.Observe(server.EpochStats{
		Epoch: epoch, Ops: e.per,
		Reads: e.reads, Writes: e.writes,
		Tiers: d.RecordTiers(),
	})
	row := EpochTraffic{Epoch: epoch}
	if len(moves) > 0 {
		res := d.ApplyMoves(moves)
		row.Moves, row.Bytes, row.CostNs = res.Moves, res.Bytes, res.CostNs
		e.moves += res.Moves
		e.bytes += res.Bytes
		e.costNs += res.CostNs
	}
	e.traffic = append(e.traffic, row)
	// The observer borrows the slices during Observe only; zero them
	// for the next epoch.
	clear(e.reads)
	clear(e.writes)
}

// fold records the run's migration ledger in st. The final epoch ends
// the run without a boundary, so it is counted here. Nil-safe: a static
// run leaves the ledger zero.
func (e *epochRun) fold(st *RunStats) {
	if e == nil {
		return
	}
	st.Epochs = e.epochs
	if st.Requests > 0 {
		st.Epochs++
	}
	st.MovesApplied, st.MigratedBytes, st.MigrationNs = e.moves, e.bytes, e.costNs
	st.EpochTraffic = e.traffic
}
