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
//
// Factors are drawn a window ahead: fill computes the next noiseWindow
// factors of the stream in one tight loop, and Factor and the replay
// kernel read them off in order. The window only buffers the stream —
// the k-th factor a run consumes is the k-th exp(σ·NormFloat64()) of
// rand.NewSource(seed), whichever mix of per-op and kernel frames
// consumes it and wherever a frame stops — so windowing changes cost,
// not measurements.
type Noise struct {
	sigma   float64
	seed    int64
	rng     *rand.Rand // allocated by the first draw; reused by Reseed
	pending bool       // seed has not been applied to rng yet
	next    int        // index of the next unread factor; noiseWindow = none left
	win     [noiseWindow]float64
}

// noiseWindow is the number of factors drawn ahead: 512 bytes inside
// the struct. A 4096-factor window measured no faster.
const noiseWindow = 64

// DefaultNoiseSigma is the per-request lognormal σ used by experiments.
const DefaultNoiseSigma = 0.02

// NewNoise creates a noise source. sigma = 0 disables noise entirely.
func NewNoise(sigma float64, seed int64) *Noise {
	if sigma < 0 {
		panic("server: negative noise sigma")
	}
	return &Noise{sigma: sigma, seed: seed, pending: true, next: noiseWindow}
}

// Reseed restarts the stream as NewNoise(σ, seed) would start it,
// reusing the generator's storage and discarding any factors drawn
// ahead from the old stream.
func (n *Noise) Reseed(seed int64) { n.seed, n.pending, n.next = seed, true, noiseWindow }

// Factor returns the next multiplicative noise factor.
func (n *Noise) Factor() float64 {
	if n == nil || n.sigma == 0 {
		return 1
	}
	if n.next == noiseWindow {
		n.fill()
	}
	f := n.win[n.next]
	n.next++
	return f
}

// fill draws the stream's next noiseWindow factors into the window and
// rewinds the read index. Callers only fill an exhausted window, so no
// drawn factor is ever skipped.
func (n *Noise) fill() {
	if n.pending {
		n.applySeed()
	}
	rng, sigma := n.rng, n.sigma
	for i := range n.win {
		n.win[i] = math.Exp(sigma * rng.NormFloat64())
	}
	n.next = 0
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
