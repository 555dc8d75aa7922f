package server

import (
	"math"
	"math/rand"
	"testing"

	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// scalarStream is the reference noise stream: the factors a source
// that draws one exp(σ·NormFloat64()) per request produces.
type scalarStream struct {
	sigma float64
	rng   *rand.Rand
}

func newScalarStream(sigma float64, seed int64) *scalarStream {
	return &scalarStream{sigma, rand.New(rand.NewSource(seed))}
}

func (s *scalarStream) next() float64 { return math.Exp(s.sigma * s.rng.NormFloat64()) }

// TestNoiseWindowMatchesScalarStream mixes per-op draws (Factor) with
// kernel blocks (ReplayTable.Serve) of every size around the window —
// 0, 1, 63, 64 and 65 requests, and a block the clock bound cuts short
// — plus a Reseed in the middle of a window, and requires every factor
// either consumer applies to be the next factor of the scalar stream.
// The deployment has no LLC and RedisLike has no GC pauses, so a kernel
// latency is exactly FromNanos(readMissNs·factor) of its record.
func TestNoiseWindowMatchesScalarStream(t *testing.T) {
	w := ycsb.MustGenerate(ycsb.Spec{
		Name: "noise", Keys: 200, Requests: 2000,
		Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
		ReadRatio: 1, Sizes: ycsb.SizeFixed1KB, Seed: 3,
	})
	pt := w.Packed()
	cfg := DefaultConfig(RedisLike, 41)
	cfg.Machine.LLCBytes = 0
	d := NewDeployment(cfg)
	if err := d.Load(w.Dataset, AllSlow()); err != nil {
		t.Fatal(err)
	}
	tab := d.BatchTable()
	if tab == nil {
		t.Fatal("no batch table")
	}
	for i, ps := range tab.pause {
		if ps.budget != 0 {
			t.Fatalf("tier %d has a GC pause model; the expected latencies assume none", i)
		}
	}
	ref := newScalarStream(cfg.NoiseSigma, cfg.Seed)
	pos := 0 // next request of the trace to serve
	lat := tab.Block()

	kernel := func(n int, maxClock simclock.Duration) int {
		t.Helper()
		keys, kinds := pt.Keys[pos:pos+n], pt.Kinds[pos:pos+n]
		served := tab.Serve(keys, kinds, maxClock, lat)
		for i := 0; i < served; i++ {
			want := simclock.FromNanos(tab.costs[keys[i]].readMissNs * ref.next())
			if lat[i] != want {
				t.Fatalf("request %d: kernel latency %v, scalar stream gives %v", pos+i, lat[i], want)
			}
		}
		pos += served
		return served
	}
	perOp := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got, want := d.noise.Factor(), ref.next(); got != want {
				t.Fatalf("Factor draw %d: %v, scalar stream gives %v", i, got, want)
			}
		}
	}

	kernel(0, 0)
	perOp(1)
	kernel(1, 0)
	kernel(63, 0)
	perOp(3)
	kernel(64, 0)
	kernel(65, 0)
	perOp(64)
	kernel(65, 0)

	// A block cut short by the clock bound hands back the unread rest
	// of the window.
	probe := d.Clock()
	if served := kernel(64, probe+1); served != 1 {
		t.Fatalf("bounded block served %d requests, want 1", served)
	}
	perOp(2)
	kernel(70, 0)

	// Reseed in the middle of a window discards what was drawn ahead.
	perOp(5)
	d.noise.Reseed(99)
	ref = newScalarStream(cfg.NoiseSigma, 99)
	kernel(10, 0)
	perOp(70)
	kernel(130, 0)
}

// TestNoiseZeroSigmaNeverSeeds pins the lazy seeding: a σ = 0 source
// hands out unit factors without seeding a generator, through Factor,
// Reseed and the kernel alike.
func TestNoiseZeroSigmaNeverSeeds(t *testing.T) {
	n := NewNoise(0, 5)
	for i := 0; i < 3*noiseWindow; i++ {
		if f := n.Factor(); f != 1 {
			t.Fatalf("draw %d: σ=0 factor %v", i, f)
		}
	}
	n.Reseed(6)
	n.Factor()
	if n.rng != nil {
		t.Fatal("σ=0 source seeded a generator")
	}

	w := smallWorkload(t, ycsb.SizeFixed1KB, 0.9)
	cfg := DefaultConfig(RedisLike, 5)
	cfg.NoiseSigma = 0
	d := loadHalfFast(t, cfg, w)
	serveAll(t, d, w.Packed())
	if d.noise.rng != nil {
		t.Fatal("σ=0 kernel replay seeded a generator")
	}
}

// TestResetRunAfterMidWindowTimeout: a run cut off by its simulated
// budget part-way through a noise window, then rewound, must replay
// exactly as a freshly loaded deployment under the new seed — the
// rewind discards the old stream's drawn-ahead factors.
func TestResetRunAfterMidWindowTimeout(t *testing.T) {
	for _, e := range Engines() {
		t.Run(e.String(), func(t *testing.T) {
			w := smallWorkload(t, ycsb.SizeFixed10KB, 0.9)
			pt := w.Packed()
			d := loadHalfFast(t, DefaultConfig(e, 23), w)
			tab := d.BatchTable()
			lat := tab.Block()
			tab.Serve(pt.Keys[:100], pt.Kinds[:100], 0, lat)
			maxClock := d.Clock() + (d.Clock()/100)*30
			served := tab.Serve(pt.Keys[100:100+ReplayBlockOps], pt.Kinds[100:100+ReplayBlockOps], maxClock, lat)
			if served == ReplayBlockOps || (100+served)%noiseWindow == 0 {
				t.Fatalf("timeout landed after %d requests, want mid-window", 100+served)
			}
			if !d.ResetRun(77) {
				t.Fatal("ResetRun failed after a timed-out block")
			}
			got := serveAll(t, d, pt)

			fresh := loadHalfFast(t, DefaultConfig(e, 77), w)
			want := serveAll(t, fresh, pt)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: rewound latency %v != fresh %v", i, got[i], want[i])
				}
			}
			if d.Clock() != fresh.Clock() {
				t.Fatalf("clocks diverged: rewound %v, fresh %v", d.Clock(), fresh.Clock())
			}
		})
	}
}

// BenchmarkNoiseDraw is the noise layer of the perf ledger, in ns per
// factor: Scalar draws one exp(σ·NormFloat64()) per request, as Factor
// did before the window; Window is Factor reading the drawn-ahead
// window. Both produce the same stream.
func BenchmarkNoiseDraw(b *testing.B) {
	var sink float64
	b.Run("Scalar", func(b *testing.B) {
		ref := newScalarStream(DefaultNoiseSigma, 1)
		for i := 0; i < b.N; i++ {
			sink += ref.next()
		}
	})
	b.Run("Window", func(b *testing.B) {
		n := NewNoise(DefaultNoiseSigma, 1)
		for i := 0; i < b.N; i++ {
			sink += n.Factor()
		}
	})
	if sink < 0 {
		b.Fatal("negative noise factor")
	}
}
