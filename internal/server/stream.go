package server

import "mnemo/internal/kvstore"

// Streamed-replay support (DESIGN.md §16). A streamed trace arrives
// frame by frame, and frames carrying structural ops (deletes, writes
// that re-insert a deleted key) cannot go through the cost table — the
// client serves exactly those frames per-op and keeps batching the
// rest. Interleaving per-op requests into a batched replay is sound
// only under the handshake below:
//
//  1. before a per-op frame, SyncEnginePauses writes the kernel's
//     mirrored pause accumulators back into the engines, so their own
//     accounting resumes where the kernel left it;
//  2. after a frame that only read or overwrote resident keys,
//     ResyncKernelPauses reads the engines' accumulators back into the
//     mirror;
//  3. after a frame that changed store structure, RetryBatchTable
//     re-prices the whole table from the live structure — the same
//     every-row re-probe migration performs (patchTable), but without
//     quiescing: the per-op reference path for the same trace would
//     not quiesce either, and bit-identity with it is the contract.
//
// A structural frame also marks the deployment mutated (MarkMutated):
// its store contents have diverged from the post-Load snapshot, so
// ResetRun refuses exactly as it does after a migration.

// SyncEnginePauses writes the kernel's mirrored pause accumulators into
// the engines — the prologue of a per-op frame interleaved into a
// batched replay.
func (t *ReplayTable) SyncEnginePauses() {
	for i, inst := range t.d.instances {
		if br, ok := inst.(kvstore.BatchReplayer); ok {
			br.SyncReplayAccum(t.pause[i].accum)
		}
	}
}

// ResyncKernelPauses reads the engines' pause accumulators back into
// the kernel's mirror — the epilogue of a per-op frame. The ResetRun
// snapshot (pauseState.reset) is left alone; a run that needed per-op
// frames has marked itself mutated and is not rewindable anyway.
func (t *ReplayTable) ResyncKernelPauses() {
	for i, inst := range t.d.instances {
		if br, ok := inst.(kvstore.BatchReplayer); ok {
			t.pause[i].accum = br.ReplayPauses().Accum
		}
	}
}

// MarkMutated latches the deployment as diverged from its post-Load
// snapshot — the state a structural streamed frame leaves behind, with
// the same consequence a migration has: ResetRun refuses, repetitions
// rebuild fresh.
func (d *Deployment) MarkMutated() { d.migrated = true }

// RetryBatchTable re-prices the batched-replay cost table from the
// engines' live structure after per-op requests changed it: every
// non-dead row is re-probed (a delete reshapes hash chains and tree
// nodes, changing the static traces of records that never moved), and
// the pause mirrors are re-snapshotted from the engines. dead marks
// dataset records currently deleted; their rows are left stale, which
// is safe because the client never batches a frame touching a dead
// record. It returns the refreshed table, or nil — leaving the batched
// kernel latched off until the next retry — when an engine stopped
// promising static traces (e.g. a tree delete-merge left a full node).
//
// Unlike the migration path (ApplyMoves), no Quiesce happens here: the
// per-op reference replay of the same trace leaves deferred structural
// work pending, and settling it would change subsequent costs away
// from that reference.
func (d *Deployment) RetryBatchTable(dead []bool) *ReplayTable {
	if d.cfg.DisableBatchReplay || d.records == nil {
		return nil
	}
	brs, ok := d.batchReplayers()
	t := d.table
	if ok && t == nil {
		t = d.newTable()
	}
	if !ok || !d.priceTable(t, brs, dead) {
		t = nil
	}
	d.table, d.tableBuilt = t, true
	return t
}
