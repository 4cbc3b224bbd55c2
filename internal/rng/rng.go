// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Determinism matters: every
// experiment in the repository must be exactly reproducible from a seed,
// so the simulator never touches math/rand's global state.
//
// The generator is splitmix64 (Steele, Lea, Flood; JPF 2014), which passes
// BigCrush and is the recommended seeder for xoshiro-family generators. It
// is more than adequate as a workload-synthesis source.
package rng

import "math"

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; prefer New to make the seed explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// gamma is splitmix64's state increment.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64-bit value in the sequence.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// mix is splitmix64's output function of a state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32-bit value.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1): the top 53 bits of the
// next value, scaled by 2⁻⁵³, so it is always an exact multiple of 2⁻⁵³.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold is a probability p in the integer form the draws compare
// against: ceil(p·2⁵³), clamped to [0, 2⁵³]. Float64() < p holds exactly
// when the top 53 bits of the value it scales are below ThresholdOf(p),
// so a draw against the threshold has the same outcome as a draw
// against p, without the conversion to floating point. Hot callers
// build their thresholds once and reuse them.
type Threshold uint64

// always is the threshold of every p >= 1: every draw succeeds.
const always Threshold = 1 << 53

// ThresholdOf returns the threshold of p. p <= 0 and NaN give 0 (no
// draw succeeds); p >= 1 gives always.
func ThresholdOf(p float64) Threshold {
	x := math.Ceil(p * (1 << 53)) // exact: scaling by 2⁵³ only moves the exponent
	switch {
	case !(x > 0): // also NaN
		return 0
	case x >= 1<<53:
		return always
	}
	return Threshold(x)
}

// Chance returns true with the probability t stands for: it draws once
// and compares the draw's top 53 bits with t.
func (r *RNG) Chance(t Threshold) bool { return r.Uint64()>>11 < uint64(t) }

// Bool returns true with probability p: Chance(ThresholdOf(p)).
func (r *RNG) Bool(p float64) bool { return r.Chance(ThresholdOf(p)) }

// Fork derives an independent generator from the current one. Forked
// streams are used to give each core / each value-model component its own
// sequence so that changing one workload parameter does not perturb the
// random choices of another.
func (r *RNG) Fork() *RNG {
	return New(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// Geometric returns a sample from a geometric distribution with success
// probability p (mean 1/p), at least 1: Trials(ThresholdOf(p)). For
// p >= 1 it returns 1 without drawing; p <= 0 panics.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	return r.Trials(ThresholdOf(p))
}

// maxTrials caps Trials: after maxTrials-1 failed draws it returns
// maxTrials without drawing again. No sane probability comes near it.
const maxTrials = 1 << 20

// laneFrom is how many draws Trials makes in the Go loop before it
// hands the run to scan16, a multiple of its four-wide step. Most runs
// end sooner (the instruction gap averages about 3 draws), and a kernel
// call costs more than a short run.
const laneFrom = 8

// Trials draws until a Chance(t) succeeds and returns the number of
// draws, leaving the generator exactly where that many Chance calls
// would. t >= always returns 1 without drawing; after maxTrials-1
// failures it returns maxTrials.
//
// A splitmix64 state advances by a constant, so the states of a whole
// run are known before any is mixed. Each step mixes the next four at
// once (independent multiply chains the CPU overlaps) and takes the
// first success, which keeps both the count and the final state those
// of one draw at a time. A run still going after laneFrom draws goes,
// where the CPU has vector lanes for it, to scan16, which tests sixteen
// states per step the same way; it stops short of the cap, whose last
// draws stay in the Go loop.
func (r *RNG) Trials(t Threshold) int {
	if t >= always {
		return 1
	}
	s := r.state
	n := 0 // failed draws so far
	for ; n+4 < maxTrials; n += 4 {
		if n == laneFrom && lanes {
			blocks := (maxTrials - 1 - n) / 16
			if k := scan16(s, uint64(t)<<11, blocks); k > 0 {
				r.state = s + uint64(k)*gamma
				return n + k
			}
			s += uint64(16*blocks) * gamma
			n += 16 * blocks
			break
		}
		s1 := s + gamma
		s2 := s1 + gamma
		s3 := s2 + gamma
		s4 := s3 + gamma
		u1, u2, u3, u4 := mix(s1)>>11, mix(s2)>>11, mix(s3)>>11, mix(s4)>>11
		switch {
		case u1 < uint64(t):
			r.state = s1
			return n + 1
		case u2 < uint64(t):
			r.state = s2
			return n + 2
		case u3 < uint64(t):
			r.state = s3
			return n + 3
		case u4 < uint64(t):
			r.state = s4
			return n + 4
		}
		s = s4
	}
	for ; n < maxTrials-1; n++ {
		s += gamma
		if mix(s)>>11 < uint64(t) {
			r.state = s
			return n + 1
		}
	}
	r.state = s
	return maxTrials
}
