// Package rng provides a small deterministic pseudo-random number generator
// for the condensation library.
//
// Determinism matters here more than in most numerical code: anonymized
// data is *synthesized* from group statistics, so reproducing a published
// experiment requires that the same seed produce the same anonymized data
// set byte for byte. The package implements xoshiro256++ seeded through
// SplitMix64, with a Split operation that derives statistically independent
// child streams — used to give each condensation group, each data-set
// generator, and each experiment repetition its own stream without any
// cross-coupling when one component changes how much randomness it draws.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic xoshiro256++ PRNG. It is not safe for
// concurrent use; derive per-goroutine sources with Split.
type Source struct {
	s [4]uint64

	// Spare variate cache for the Marsaglia polar method used by Norm.
	haveSpare bool
	spare     float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is the recommended seeding procedure for the xoshiro family.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Any seed, including 0,
// yields a well-mixed non-degenerate state.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the parent's subsequent output. The child state is derived by running the
// parent's next four outputs through SplitMix64, so parent and child never
// share state.
func (r *Source) Split() *Source {
	child := r.SplitValue()
	return &child
}

// SplitValue is Split returning the child by value, so a caller that
// keeps many children in one slice, or splits a child only to advance the
// parent past it, allocates nothing per child. It leaves the parent in
// exactly the state Split does.
func (r *Source) SplitValue() Source {
	var child Source
	for i := range child.s {
		sm := r.Uint64()
		child.s[i] = splitMix64(&sm)
	}
	return child
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform bounds inverted [%g, %g)", lo, hi))
	}
	return lo + (hi-lo)*r.Float64()
}

// IntN returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded generation.
func (r *Source) IntN(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: IntN(%d), n must be > 0", n))
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Norm returns a standard normal variate. It uses the Marsaglia polar
// method with caching of the second variate.
func (r *Source) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// NormMeanStd returns a normal variate with the given mean and standard
// deviation. It panics on a negative standard deviation.
func (r *Source) NormMeanStd(mean, std float64) float64 {
	if std < 0 {
		panic(fmt.Sprintf("rng: negative standard deviation %g", std))
	}
	return mean + std*r.Norm()
}

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
func (r *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic(fmt.Sprintf("rng: Exp rate %g, must be > 0", lambda))
	}
	// 1-Float64() is in (0, 1], so the log never sees zero.
	return -math.Log(1-r.Float64()) / lambda
}

// Shuffle pseudo-randomizes the order of n elements using the supplied swap
// function (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		swap(i, j)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Categorical samples an index with probability proportional to weights.
// It panics if all weights are zero or any weight is negative.
func (r *Source) Categorical(weights []float64) int {
	var total float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: Categorical weight[%d] = %g", i, w))
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical weights sum to zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1 // floating-point edge: return the last nonzero index
}
