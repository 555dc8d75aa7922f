// Package server assembles the paper's experimental deployment: two
// instances of one key-value store engine, each bound to a memory node of
// the emulated hybrid machine (the paper uses numactl to bind one server
// process to FastMem and one to SlowMem), plus the service-time model
// that turns each operation's memory traffic into simulated time.
//
// Service time of one request (DESIGN.md §5):
//
//	t = (cpuBase + cpuPerByte·valueBytes + memNs/MLP) · noise + pause
//
// where memNs prices the operation's pointer chases and (amplified)
// touched bytes against the tier that holds the record — or against the
// LLC when the record is cache-resident — and writes pay the engine's
// WritePenalty on the byte traffic.
package server

import (
	"fmt"

	"mnemo/internal/kvstore"
	"mnemo/internal/kvstore/hashkv"
	"mnemo/internal/kvstore/slabkv"
	"mnemo/internal/kvstore/treekv"
	"mnemo/internal/memsim"
	"mnemo/internal/obs"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// Engine selects a key-value store implementation.
type Engine int

// The three engines of the paper's evaluation.
const (
	RedisLike Engine = iota
	MemcachedLike
	DynamoLike
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case RedisLike:
		return "redislike"
	case MemcachedLike:
		return "memcachedlike"
	case DynamoLike:
		return "dynamolike"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Engines lists all engines in evaluation order.
func Engines() []Engine { return []Engine{RedisLike, MemcachedLike, DynamoLike} }

// EngineByName resolves an engine from its name.
func EngineByName(name string) (Engine, bool) {
	for _, e := range Engines() {
		if e.String() == name {
			return e, true
		}
	}
	return 0, false
}

// newStore instantiates one server process of the engine.
func (e Engine) newStore() kvstore.Store {
	switch e {
	case RedisLike:
		return hashkv.New()
	case MemcachedLike:
		return slabkv.New(0)
	case DynamoLike:
		return treekv.New()
	default:
		panic(fmt.Sprintf("server: unknown engine %d", int(e)))
	}
}

// Profile returns the engine's performance profile.
func (e Engine) Profile() kvstore.EngineProfile {
	switch e {
	case RedisLike:
		return hashkv.Profile
	case MemcachedLike:
		return slabkv.Profile
	case DynamoLike:
		return treekv.Profile
	default:
		panic(fmt.Sprintf("server: unknown engine %d", int(e)))
	}
}

// Config parameterizes a deployment.
type Config struct {
	Engine     Engine
	Machine    memsim.Config
	NoiseSigma float64
	Seed       int64
	// Fault injects deterministic measurement faults (zero value: none).
	// The per-run fate is rolled once per deployment from Fault.Seed
	// mixed with Seed; see FaultSpec.
	Fault FaultSpec
	// RunTimeout bounds one measurement run in simulated time; the
	// client aborts a replay whose clock exceeds it (cutting off
	// injected stalls). 0 disables the bound.
	RunTimeout simclock.Duration
	// Obs receives the deployment's telemetry (per-engine op counters,
	// fault events, LLC hit/miss). nil — the zero value — records
	// nothing and adds no per-request work beyond an inert branch, so
	// the replay fast path stays allocation-free.
	Obs *obs.Sink
	// DisableBatchReplay forces the per-operation replay path even when
	// the engine supports the batched kernel (BatchTable returns nil).
	// It exists as the reference knob for the golden equivalence tests
	// and frozen benchmarks; the two paths are bit-identical, so there
	// is no reason to set it in production.
	DisableBatchReplay bool
	// Shards splits the deployment into a consistent-hash cluster of N
	// independent fast+slow pairs (DESIGN.md §13). 0 keeps the legacy
	// single deployment; ≥ 1 routes execution through
	// ShardedDeployment (Shards=1 is a one-shard cluster, bit-identical
	// to the single deployment — the golden equivalence anchor).
	Shards int
	// VirtualNodes is the ring points per shard
	// (0 = shard.DefaultVirtualNodes).
	VirtualNodes int
	// EpochOps is the adaptive-replay epoch length in requests; the
	// client re-consults Adaptive after every EpochOps served requests.
	// 0 — the zero value — disables epochs and keeps the static replay
	// path bit-identical (DESIGN.md §15).
	EpochOps int
	// MigrationCostPerByte is the simulated-time charge, in nanoseconds
	// per payload byte, for records ApplyMoves copies between tiers.
	// 0 makes migration free on the clock (structural work is untimed).
	MigrationCostPerByte float64
	// MigrationBudget caps the payload bytes one ApplyMoves call may
	// migrate; excess moves are dropped and counted. 0 means unlimited.
	MigrationBudget int64
	// Adaptive supplies per-run epoch observers for online migration.
	// nil — the zero value — disables adaptive replay.
	Adaptive EpochSource
}

// DefaultConfig returns the Table I machine with default noise.
func DefaultConfig(e Engine, seed int64) Config {
	return Config{Engine: e, Machine: memsim.DefaultConfig(), NoiseSigma: DefaultNoiseSigma, Seed: seed}
}

// Deployment is two engine instances on the hybrid machine with a
// placement routing keys between them.
type Deployment struct {
	cfg       Config
	machine   *memsim.Machine
	clock     simclock.Clock
	instances [2]kvstore.Store // indexed by memsim.Tier
	placement Placement
	noise     *Noise
	profile   kvstore.EngineProfile

	// records and tiers are the index-addressed request path, built by
	// Load: records aliases the loaded dataset and tiers[i] caches the
	// placement decision for record i, so DoIndex resolves a request
	// with two slice loads instead of a map lookup plus a key hash.
	records []ycsb.Record
	tiers   []memsim.Tier

	// fault is this run's rolled fate and ops the served-request count
	// that triggers a scheduled stall. The inert plan costs two
	// predictable branches per request.
	fault faultPlan
	ops   int

	// telem carries the deployment's pre-resolved observability handles
	// (all nil without a configured sink; see obs.go).
	telem deployTelemetry

	// table is the lazily built batched-replay cost table (batch.go);
	// tableBuilt latches the build attempt so an unsupported deployment
	// is probed once, not per run. Load invalidates both.
	table      *ReplayTable
	tableBuilt bool

	// migrated latches once ApplyMoves changes the placement: the store
	// contents then diverge from the post-Load snapshot, so ResetRun
	// refuses to rewind (migrate.go). Load clears it.
	migrated bool

	// debt is the served prefix of a memo-served run that the live LLC
	// model has not seen yet; the next live LLC use replays it first
	// (memo.go). Load and ResetRun clear it.
	debt llcDebt
}

// NewDeployment builds an empty deployment with an AllFast placement.
func NewDeployment(cfg Config) *Deployment {
	d := &Deployment{
		cfg:       cfg,
		machine:   memsim.NewMachine(cfg.Machine),
		placement: AllFast(),
		noise:     NewNoise(cfg.NoiseSigma, cfg.Seed),
		profile:   cfg.Engine.Profile(),
		fault:     cfg.Fault.roll(cfg.Seed),
	}
	d.instances[memsim.Fast] = cfg.Engine.newStore()
	d.instances[memsim.Slow] = cfg.Engine.newStore()
	d.initTelemetry()
	return d
}

// Machine exposes the underlying memory machine (for calibration and
// inspection). A pending LLC debt is settled first, so the machine's
// cache holds exactly what live replay would have left in it.
func (d *Deployment) Machine() *memsim.Machine {
	d.settleLLC()
	return d.machine
}

// LLCHitRate reports the LLC hit fraction since the cache statistics
// were last reset (Load, ResetRun), or 0 without an LLC model. Unlike
// Machine it leaves a pending LLC debt alone: memo-served requests are
// already counted.
func (d *Deployment) LLCHitRate() float64 {
	if llc := d.machine.LLC(); llc != nil {
		return llc.HitRate()
	}
	return 0
}

// Clock returns the current simulated time.
func (d *Deployment) Clock() simclock.Duration { return d.clock.Now() }

// Engine reports the deployed engine.
func (d *Deployment) Engine() Engine { return d.cfg.Engine }

// Placement returns the active placement.
func (d *Deployment) Placement() Placement { return d.placement }

// Instance returns the store bound to a tier.
func (d *Deployment) Instance(t memsim.Tier) kvstore.Store { return d.instances[t] }

// InjectedFailure reports the scheduled fail-fault of this deployment as
// a typed *FaultError, or nil when the run is healthy. Clients check it
// before replaying, the way a dead server process is noticed at connect
// time.
func (d *Deployment) InjectedFailure() error {
	if d.fault.fail {
		d.telem.faultFired(d, FaultFail)
		return &FaultError{Kind: FaultFail, Seed: d.cfg.Seed}
	}
	return nil
}

// CrashOp returns the request index at which this run is fated to crash
// mid-replay, or −1 for a run that will not crash. The client replays
// the prefix before the crash point (the work a dying server performed)
// and then reports CrashError.
func (d *Deployment) CrashOp() int { return d.fault.crashAt }

// CrashError journals and returns the scheduled mid-run crash as a
// typed *FaultError of kind FaultCrash.
func (d *Deployment) CrashError() error {
	d.telem.faultFired(d, FaultCrash)
	return &FaultError{Kind: FaultCrash, Seed: d.cfg.Seed}
}

// Load populates the deployment from a dataset under the given placement.
// Loading is the untimed setup phase (the paper's YCSB load stage): it
// neither advances the clock nor perturbs the LLC model. Node capacity is
// accounted; an error is returned if a tier overflows a configured
// capacity.
func (d *Deployment) Load(ds ycsb.Dataset, p Placement) error {
	d.placement = p
	d.records = ds.Records
	d.tiers = make([]memsim.Tier, len(ds.Records))
	for i, rec := range ds.Records {
		tier := p.tierForRecord(i, rec.Key)
		d.tiers[i] = tier
		if err := d.machine.Node(tier).Alloc(int64(rec.Size)); err != nil {
			return fmt.Errorf("server: loading %q: %w", rec.Key, err)
		}
		d.instances[tier].PutID(rec.Key, rec.ID, kvstore.Sized(rec.Size))
		d.instances[tier].TakePauseNs() // setup-phase stalls are not timed
	}
	// Quiesce deferred background work (incremental rehash, pending node
	// splits) as part of the untimed setup phase, so the steady-state
	// request path starts structurally settled — the property the batched
	// replay kernel's static cost table relies on, applied to every
	// deployment so the per-op and batched paths price the same store.
	for _, inst := range d.instances {
		if br, ok := inst.(kvstore.BatchReplayer); ok {
			br.Quiesce()
			inst.TakePauseNs()
		}
	}
	d.table, d.tableBuilt = nil, false
	d.migrated = false
	d.debt = llcDebt{}
	if llc := d.machine.LLC(); llc != nil {
		llc.Flush()
		llc.ResetStats()
	}
	return nil
}

// Result reports how one request was served.
type Result struct {
	Tier    memsim.Tier
	Kind    kvstore.OpKind
	Latency simclock.Duration
	Found   bool
	Hit     bool // LLC hit
}

// Do executes one request against the deployment, advancing the clock by
// its service time. This is the string-keyed path; replay loops holding
// dataset indices should use DoIndex, which skips the placement map
// lookup and the key re-hash.
func (d *Deployment) Do(key string, kind kvstore.OpKind, size int) Result {
	tier := d.placement.TierOf(key)
	st := d.instances[tier]
	var tr kvstore.OpTrace
	switch kind {
	case kvstore.Read:
		_, tr = st.Get(key)
	case kvstore.Write:
		tr = st.Put(key, kvstore.Sized(size))
	case kvstore.Delete:
		tr = st.Del(key)
	default:
		panic(fmt.Sprintf("server: unknown op kind %v", kind))
	}
	return d.price(tier, st, kind, tr, size)
}

// DoIndex executes one request addressed by dataset record index — the
// replay fast path. The record's tier comes from the table Load built
// and its identity from the dataset's cached KeyID, so no per-request
// string work remains. Writes store the record's dataset size (the
// trace's record sizes are fixed for the workload's lifetime). DoIndex
// panics if the deployment has not been loaded or idx is out of range.
func (d *Deployment) DoIndex(idx int, kind kvstore.OpKind) Result {
	rec := &d.records[idx]
	tier := d.tiers[idx]
	st := d.instances[tier]
	var tr kvstore.OpTrace
	switch kind {
	case kvstore.Read:
		_, tr = st.GetID(rec.Key, rec.ID)
	case kvstore.Write:
		tr = st.PutID(rec.Key, rec.ID, kvstore.Value{Size: rec.Size})
	case kvstore.Delete:
		tr = st.DelID(rec.Key, rec.ID)
	default:
		panic(fmt.Sprintf("server: unknown op kind %v", kind))
	}
	return d.price(tier, st, kind, tr, rec.Size)
}

// price turns an operation trace into simulated service time and
// advances the clock — the shared back half of Do and DoIndex.
func (d *Deployment) price(tier memsim.Tier, st kvstore.Store, kind kvstore.OpKind, tr kvstore.OpTrace, size int) Result {
	d.settleLLC()
	// Cache residency is tracked at the record's value size; pricing uses
	// the engine's (possibly amplified) touched bytes.
	vb := d.valueBytes(tr, size)
	ref := memsim.RecordRef{ID: tr.RecordID, Bytes: vb}
	hit := d.machine.TouchHit(ref)
	if kind == kvstore.Delete {
		d.machine.Invalidate(ref)
	}

	var medium *memsim.NodeParams
	if hit {
		medium = &memsim.LLCParams
	} else {
		medium = &d.machine.Node(tier).Params
	}
	transferNs := medium.TransferNs(tr.Touched)
	if kind == kvstore.Write {
		transferNs *= d.profile.WritePenalty
	}
	memNs := medium.ChaseNs(tr.Chases) + transferNs
	if mlp := d.profile.MLP; mlp != 1 {
		memNs /= mlp
	}

	cpuNs := d.profile.CPUBaseNs + d.profile.CPUPerByteNs*float64(vb)
	serviceNs := (cpuNs+memNs)*d.noise.Factor() + st.TakePauseNs()

	// Scheduled faults: an outlier run inflates every service time; a
	// stalled run jumps the clock once, at its rolled request index.
	// The inert plan (factor 1, stallAt −1) leaves serviceNs bit-exact.
	if d.fault.factor != 1 {
		serviceNs *= d.fault.factor
	}
	if d.fault.stallAt >= 0 && d.ops == d.fault.stallAt {
		serviceNs += float64(d.cfg.Fault.stall())
		d.telem.faultFired(d, FaultStall) // fires once per run; off the steady-state path
	}
	d.ops++

	lat := simclock.FromNanos(serviceNs)
	d.clock.Advance(lat)
	return Result{Tier: tier, Kind: kind, Latency: lat, Found: tr.Found, Hit: hit}
}

// valueBytes recovers the record's actual payload size from an operation
// trace: the size the CPU handles once (serialization and copy) and the
// footprint the record occupies in the LLC. Engine traces report Touched
// = payload × amplification, so the engine's amplification factor is
// divided back out.
func (d *Deployment) valueBytes(tr kvstore.OpTrace, writeSize int) int {
	if tr.Kind == kvstore.Write {
		return writeSize
	}
	if !tr.Found {
		return 0
	}
	amp := d.profile.ReadAmplification
	if amp <= 1 {
		// Unamplified engines (hash, slab) touch exactly the payload;
		// dividing by 1.0 is the identity, so skip the float round trip.
		return tr.Touched
	}
	return int(float64(tr.Touched) / amp)
}
