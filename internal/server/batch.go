package server

import (
	"mnemo/internal/kvstore"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/simclock"
)

// Batched, table-driven replay kernel (DESIGN.md §12).
//
// After Load quiesces the engines, every operation on a resident key has
// a static trace: fixed pointer chases, fixed touched bytes, fixed
// payload size. BatchTable folds those constants through the pricing
// formula once per record — one precomputed pre-noise service time per
// (kind, LLC hit/miss) combination — and Serve replays whole blocks of
// requests against the flat table. The only state touched per request is
// the state that genuinely varies per request: the LLC model, the noise
// RNG stream, the GC-pause accumulator, the fault plan and the simulated
// clock. No kvstore.Store interface call remains on the path.
//
// Bit-identity with the per-operation path is by construction: both
// price through staticCost — the table builder on each record's static
// trace, price() on the live one — and Serve consumes the same noise
// draws, the same fault plan and the same LLC decisions in the same
// order.

// ReplayBlockOps is the number of requests a client serves per kernel
// call. It matches the per-op path's historical cancellation-poll stride
// (one ctx check every 4096 requests), so hoisting the poll to block
// granularity preserves the cancellation latency bound documented there.
const ReplayBlockOps = 4096

// opCost is one record's precomputed static service-time components:
// the full pre-noise service time (CPU + memory, MLP and write penalty
// applied) for each op kind and LLC outcome, plus the constants the
// kernel needs per access.
type opCost struct {
	readHitNs, readMissNs   float64
	writeHitNs, writeMissNs float64
	id                      uint64 // record identity for the LLC model
	readBytes, writeBytes   int32  // LLC footprint (valueBytes) per kind
	size                    int32  // payload bytes charged to the GC model
	tier                    uint8  // serving instance, for pause routing
}

// pauseState is the kernel-side mirror of one instance's
// kvstore.PauseModel, with the post-load accumulator snapshot kept for
// ResetRun.
type pauseState struct {
	budget, perOp int64
	pauseNs       float64
	accum, reset  int64
}

// ReplayTable is a deployment's batched-replay state: the per-record
// cost table, the per-tier pause models, and a block-sized latency
// scratch buffer. It is bound to the deployment that built it and shares
// its single-threaded discipline.
type ReplayTable struct {
	d       *Deployment
	costs   []opCost
	pause   [2]pauseState // indexed by memsim.Tier
	stallNs float64       // precomputed stall jump of the fault plan
	lat     [ReplayBlockOps]simclock.Duration
}

// Block returns the table's block-sized latency scratch buffer for Serve
// calls. The buffer is reused across blocks and runs; its contents are
// valid only until the next Serve.
func (t *ReplayTable) Block() []simclock.Duration { return t.lat[:] }

// BatchTable returns the deployment's batched-replay cost table,
// building it on first call after Load. It returns nil — directing the
// caller to the per-operation path — when batching is disabled by
// config, the deployment is unloaded, or an engine instance cannot
// promise static traces (kvstore.BatchReplayer absent or not
// ReplayReady). The probe result is latched until the next Load.
//
// Once a table exists, all replay against the deployment must go through
// Serve: the kernel mirrors engine-internal accounting (the GC budget)
// instead of advancing it, so interleaving per-op requests afterwards
// would let the two diverge.
func (d *Deployment) BatchTable() *ReplayTable {
	if d.tableBuilt {
		return d.table
	}
	d.tableBuilt = true
	if d.cfg.DisableBatchReplay || d.records == nil {
		return nil
	}
	brs, ok := d.batchReplayers()
	if !ok {
		return nil
	}
	t := d.newTable()
	if !d.priceTable(t, brs, nil) {
		return nil
	}
	d.table = t
	return t
}

func (d *Deployment) newTable() *ReplayTable {
	return &ReplayTable{d: d, costs: make([]opCost, len(d.records)), stallNs: float64(d.cfg.Fault.stall())}
}

// batchReplayers returns both instances as kvstore.BatchReplayers, or
// false when an engine cannot promise static traces in its current
// state.
func (d *Deployment) batchReplayers() (brs [2]kvstore.BatchReplayer, ok bool) {
	for i, inst := range d.instances {
		br, ok := inst.(kvstore.BatchReplayer)
		if !ok || !br.ReplayReady() {
			return brs, false
		}
		brs[i] = br
	}
	return brs, true
}

// priceTable prices t from the engines' current structure: every row
// not marked dead (dead may be nil), then the pause mirrors, snapshotted
// from the engines' accumulators. It is the one table pricing pass
// behind the build (BatchTable), the post-migration patch (patchTable)
// and the post-delete retry (RetryBatchTable). It returns false, with t
// partly priced, when a record's trace is not static.
func (d *Deployment) priceTable(t *ReplayTable, brs [2]kvstore.BatchReplayer, dead []bool) bool {
	for i := range d.records {
		if (dead == nil || !dead[i]) && !d.fillCost(t, i, brs) {
			return false
		}
	}
	for i, br := range brs {
		pm := br.ReplayPauses()
		t.pause[i] = pauseState{budget: pm.BudgetBytes, perOp: pm.PerOpBytes,
			pauseNs: pm.PauseNs, accum: pm.Accum, reset: pm.Accum}
	}
	return true
}

// DropBatchTable latches the batched kernel off for the rest of the
// deployment's life: BatchTable returns nil from now on — the state a
// failed migration re-probe leaves behind when the rebuild cannot
// recover either. It exists for chaos and regression tests that need to
// force the mid-run per-op fallback deterministically.
func (d *Deployment) DropBatchTable() { d.table, d.tableBuilt = nil, true }

// fillCost prices one record into the table from its current tier's
// static trace — the per-record half of priceTable. It returns false
// when the record's trace is not static.
func (d *Deployment) fillCost(t *ReplayTable, i int, brs [2]kvstore.BatchReplayer) bool {
	rec := &d.records[i]
	tier := d.tiers[i]
	getChases, putChases, ok := brs[tier].StaticTrace(rec.Key, rec.ID)
	if !ok {
		return false
	}
	c := &t.costs[i]
	c.id = rec.ID
	c.size = int32(rec.Size)
	c.tier = uint8(tier)

	readTouched, readVB := d.readFootprint(rec.Size)
	writeTouched := kvstore.Amplify(rec.Size, d.profile.WriteAmplification)
	c.readBytes = int32(readVB)
	c.writeBytes = int32(rec.Size)

	node := &d.machine.Node(tier).Params
	c.readHitNs = d.staticCost(kvstore.Read, getChases, readTouched, readVB, &memsim.LLCParams)
	c.readMissNs = d.staticCost(kvstore.Read, getChases, readTouched, readVB, node)
	c.writeHitNs = d.staticCost(kvstore.Write, putChases, writeTouched, rec.Size, &memsim.LLCParams)
	c.writeMissNs = d.staticCost(kvstore.Write, putChases, writeTouched, rec.Size, node)
	return true
}

// readFootprint returns the bytes a static read of a size-byte record
// touches and its valueBytes — the payload the CPU handles and the
// footprint the record occupies in the LLC. (Writes use the stored size
// directly.) It is the one statement of the footprint rule for the cost
// table and the LLC outcome memo.
func (d *Deployment) readFootprint(size int) (touched, vb int) {
	touched = kvstore.Amplify(size, d.profile.ReadAmplification)
	return touched, d.readPayload(touched)
}

// staticCost is the pre-noise service time of one operation (DESIGN.md
// §5): chase plus transfer cost (with the write penalty applied to the
// transfer term only), divided by MLP, plus the per-byte CPU cost. It
// is the one pricing formula: the per-op path (price) applies it to the
// live trace, the cost table to each record's static trace.
func (d *Deployment) staticCost(kind kvstore.OpKind, chases, touched, vb int, medium *memsim.NodeParams) float64 {
	chaseNs, transferNs := medium.OpCost(chases, touched)
	if kind == kvstore.Write {
		transferNs *= d.profile.WritePenalty
	}
	memNs := chaseNs + transferNs
	if mlp := d.profile.MLP; mlp != 1 {
		memNs /= mlp
	}
	cpuNs := d.profile.CPUBaseNs + d.profile.CPUPerByteNs*float64(vb)
	return cpuNs + memNs
}

// Serve replays one block of requests — keys[i] is a dataset record
// index, kinds[i] its op kind — through the cost table, advancing the
// clock and writing each request's latency into lat. It returns the
// number of requests served: len(keys) normally, or fewer when maxClock
// (an absolute simulated-time bound, 0 = none) was exceeded — the
// request that crossed the bound is served and counted, matching the
// per-op path's post-op budget check.
func (t *ReplayTable) Serve(keys []uint32, kinds []uint8, maxClock simclock.Duration, lat []simclock.Duration) int {
	t.d.settleLLC()
	return t.serve(keys, kinds, nil, 0, maxClock, lat)
}

// serve is the kernel loop behind Serve and ServeMemo. With memo nil
// each request's LLC outcome comes from the live cache model; otherwise
// request i's outcome is bit memoOff+i of memo and the live model is not
// touched.
func (t *ReplayTable) serve(keys []uint32, kinds []uint8, memo []uint64, memoOff int, maxClock simclock.Duration, lat []simclock.Duration) int {
	d := t.d
	llc := d.machine.LLC()
	// The kernel reads the noise window directly, keeping its read
	// index in a register for the block and handing it back on exit.
	noise := d.noise
	noisy := noise.Sigma() != 0
	var nx int
	if noisy {
		nx = noise.next
	}
	served := len(keys)
	for i := range keys {
		c := &t.costs[keys[i]]
		read := kinds[i] == uint8(kvstore.Read)
		var hit bool
		if memo != nil {
			j := memoOff + i
			hit = memo[j>>6]&(1<<(j&63)) != 0
		} else if llc != nil {
			ref := memsim.RecordRef{ID: c.id, Bytes: int(c.writeBytes)}
			if read {
				ref.Bytes = int(c.readBytes)
			}
			hit = llc.Access(ref)
		}
		var base float64
		switch {
		case read && hit:
			base = c.readHitNs
		case read:
			base = c.readMissNs
		case hit:
			base = c.writeHitNs
		default:
			base = c.writeMissNs
		}

		// Mirror of TakePauseNs: the engine's own GC accounting would
		// charge this op's bytes and stall when the budget is crossed.
		var pause float64
		if ps := &t.pause[c.tier]; ps.budget > 0 {
			ps.accum += int64(c.size) + ps.perOp
			if ps.accum >= ps.budget {
				ps.accum = 0
				pause = ps.pauseNs
			}
		}

		f := 1.0
		if noisy {
			if nx == noiseWindow {
				noise.fill()
				nx = 0
			}
			f = noise.win[nx]
			nx++
		}
		serviceNs := base*f + pause
		if d.fault.factor != 1 {
			serviceNs *= d.fault.factor
		}
		if d.ops == d.fault.stallAt { // stallAt is −1 when unscheduled
			serviceNs += t.stallNs
			d.telem.faultFired(d, FaultStall)
		}
		d.ops++

		l := simclock.FromNanos(serviceNs)
		d.clock.Advance(l)
		lat[i] = l
		if maxClock > 0 && d.clock.Now() > maxClock {
			served = i + 1
			break
		}
	}
	if noisy {
		noise.next = nx
	}
	return served
}

// ResetRun rewinds a batch-capable deployment to its post-Load state
// under a new measurement seed — the snapshot/reset that lets repeated
// runs (ExecuteMean, Session.Compare) load the populated store once
// instead of re-populating per run. It resets the clock, op counter,
// LLC contents and statistics, re-rolls the noise stream and fault plan
// from the seed, and restores the kernel's pause accumulators to their
// post-load snapshot; telemetry parity with a fresh deployment is kept
// by re-counting the deployment and re-journaling an outlier fate.
//
// It returns false — leaving the deployment untouched — when no batch
// table is available: the per-op path mutates engine state during
// replay, so only table-driven runs are rewindable. A deployment whose
// placement migrated mid-run (ApplyMoves) also refuses: its store
// contents no longer match the post-Load snapshot.
func (d *Deployment) ResetRun(seed int64) bool {
	if d.migrated {
		return false
	}
	t := d.BatchTable()
	if t == nil {
		return false
	}
	d.cfg.Seed = seed
	d.clock.Reset()
	d.ops = 0
	d.noise.Reseed(seed)
	d.fault = d.cfg.Fault.roll(seed)
	for i := range t.pause {
		t.pause[i].accum = t.pause[i].reset
	}
	d.debt = llcDebt{}
	if llc := d.machine.LLC(); llc != nil {
		llc.Flush()
		llc.ResetStats()
	}
	d.resetRunTelemetry()
	return true
}

// resetRunTelemetry re-establishes the observability state a fresh
// deployment would have: zeroed flush cursors, the deployments counter
// bumped, and an outlier fate journaled — so a reused deployment's
// metric stream is indistinguishable from the fresh-populate path's.
func (d *Deployment) resetRunTelemetry() {
	tl := &d.telem
	if tl.sink == nil {
		return
	}
	tl.flushedOps, tl.flushedHits, tl.flMiss = 0, 0, 0
	tl.sink.Counter(obs.Name("mnemo_server_deployments_total", "engine", d.cfg.Engine.String())).Inc()
	if d.fault.factor != 1 {
		tl.faultFired(d, d.factorFaultKind())
	}
}
