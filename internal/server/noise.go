package server

import (
	"math"
	"math/rand"
)

// Noise injects multiplicative measurement noise into per-request service
// times, standing in for the run-to-run variability of the paper's real
// testbed ("reported values are the mean of multiple experiment runs").
// A lognormal factor exp(σ·N(0,1)) keeps service times positive and
// averages to ≈1 for small σ, so aggregate runtimes stay unbiased while
// individual runs differ — this is what makes the Fig 8a error
// distribution non-degenerate.
//
// Seeding the generator costs ~15 µs, a visible share of a short run,
// so it is deferred to the first draw: a source that never draws (σ = 0)
// never seeds, and a sharded cluster's members seed on their own replay
// workers instead of serially in the cluster rewind.
type Noise struct {
	sigma   float64
	seed    int64
	rng     *rand.Rand // allocated by the first draw; reused by Reseed
	pending bool       // seed has not been applied to rng yet
}

// DefaultNoiseSigma is the per-request lognormal σ used by experiments.
const DefaultNoiseSigma = 0.02

// NewNoise creates a noise source. sigma = 0 disables noise entirely.
func NewNoise(sigma float64, seed int64) *Noise {
	if sigma < 0 {
		panic("server: negative noise sigma")
	}
	return &Noise{sigma: sigma, seed: seed, pending: true}
}

// Reseed restarts the stream as NewNoise(σ, seed) would start it,
// reusing the generator's storage.
func (n *Noise) Reseed(seed int64) { n.seed, n.pending = seed, true }

// Factor returns the next multiplicative noise factor.
func (n *Noise) Factor() float64 {
	if n == nil || n.sigma == 0 {
		return 1
	}
	if n.pending {
		n.applySeed()
	}
	return math.Exp(n.sigma * n.rng.NormFloat64())
}

// applySeed puts the generator in the state rand.NewSource(seed) starts
// in: Rand.Seed reseeds the source in place and drops buffered state.
func (n *Noise) applySeed() {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(n.seed))
	} else {
		n.rng.Seed(n.seed)
	}
	n.pending = false
}

// Sigma reports the configured σ.
func (n *Noise) Sigma() float64 {
	if n == nil {
		return 0
	}
	return n.sigma
}
