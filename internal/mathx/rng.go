// Package mathx provides the deterministic random-number generator and the
// small dense linear-algebra kernels that every other package in this
// repository builds on. All stochastic behaviour in the repository flows
// through RNG so that experiments are reproducible bit-for-bit from a seed.
package mathx

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a deterministic pseudo-random number generator based on the
// SplitMix64 sequence. It is small, fast, has a full 2^64 period, and — unlike
// math/rand's global functions — carries no hidden state, so two RNGs created
// with the same seed always produce identical streams.
//
// RNG is not safe for concurrent use; give each goroutine its own instance
// (see Split).
type RNG struct {
	state uint64

	// cached spare normal deviate for Box-Muller.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed. Distinct seeds produce
// uncorrelated streams for all practical purposes.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// RNGState is the complete serializable state of an RNG: the SplitMix64 word
// plus the cached Box-Muller spare. Round-tripping through State/SetState
// reproduces the generator's output stream exactly, including a pending
// spare normal deviate — the property trainer checkpoints rely on for
// bit-identical resume.
type RNGState struct {
	State    uint64  `json:"state"`
	HasSpare bool    `json:"has_spare,omitempty"`
	Spare    float64 `json:"spare,omitempty"`
}

// State captures the generator's full state.
func (r *RNG) State() RNGState {
	return RNGState{State: r.state, HasSpare: r.hasSpare, Spare: r.spare}
}

// SetState restores a state previously captured with State. The next outputs
// of r are identical to what the captured generator would have produced.
func (r *RNG) SetState(s RNGState) {
	r.state = s.State
	r.hasSpare = s.HasSpare
	r.spare = s.Spare
}

// Split derives a new, statistically independent generator from r. It is the
// supported way to hand an RNG to a sub-component without sharing state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform deviate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// Intn keeps the historical modulo reduction: its output stream is pinned
// bitwise by the golden training fingerprints, and for the small n the
// trainers draw (minibatch permutations, trace indices) the modulo bias is
// O(n/2^64). New code that needs an exactly uniform bounded draw should use
// Uint64n.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n) with no modulo bias for any n
// (Lemire's multiply-shift bounded draw with rejection of the short
// low-product window). It panics if n == 0. Unlike Intn it consumes a
// variable number of Uint64 draws — on average barely more than one — so it
// is not a drop-in replacement where the draw count is pinned by golden
// streams.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("mathx: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		// Reject draws landing in the 2^64 mod n leftover window so every
		// residue class is hit by exactly floor(2^64/n) inputs.
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Norm returns a standard normal deviate (mean 0, stddev 1) using the
// Box-Muller transform with caching of the spare value.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.hasSpare = true
	return u * mul
}

// NormScaled returns a normal deviate with the given mean and stddev.
func (r *RNG) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Exp returns an exponentially distributed deviate with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("mathx: Exp with non-positive rate")
	}
	// 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm writes a pseudo-random permutation of [0, n) (Fisher-Yates) over
// dst[:0], growing it only when its capacity is short, and returns it.
func (r *RNG) Perm(dst []int, n int) []int {
	p := slices.Grow(dst[:0], n)[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a pseudo-random index in [0, len(weights)) drawn with the
// given non-negative weights. It panics if the weights are empty or sum to a
// non-positive value.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("mathx: Choice with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("mathx: Choice with empty or zero-sum weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
