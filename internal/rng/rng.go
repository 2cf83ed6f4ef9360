// Package rng provides a small, deterministic pseudo-random number
// generator used by the traffic generators and the test suite.
//
// The generator is xoshiro256** seeded via splitmix64. It is implemented
// locally (rather than using math/rand) so that simulation results are
// stable across Go releases: every experiment in this repository quotes
// numbers that must be reproducible from a seed alone.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed via splitmix64.
// Any seed, including zero, yields a well-mixed state.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection to
	// remove modulo bias.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed variate with the given mean.
// It panics if mean is not positive. Exponential inter-arrival times model
// the paper's Poisson packet injection process.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// 1-Float64() is in (0,1], avoiding log(0).
	return -mean * math.Log(1-r.Float64())
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm fills p in place with a random permutation of [0, len(p)): the
// inside-out Fisher-Yates shuffle, drawing Intn(i+1) for i = 0, 1, ...,
// len(p)-1. Callers pass scratch of any integer type wide enough for
// len(p)-1, so a draw allocates nothing.
func Perm[E ~int | ~uint64](r *Source, p []E) {
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = E(i)
	}
}

// Split returns an independent generator derived from this one, for giving
// each traffic source its own stream without cross-correlation.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}
