// Package rng provides the deterministic random number generator used
// throughout the repository.
//
// The paper generated all random numbers with "a Fibonacci random number
// generator"; Rand is a lagged-Fibonacci generator with the classical
// (24, 55) lags, and it derives the distributions the graph generators
// and the randomized algorithms need from its words (bounded integers,
// floats, permutations). SplitMix64 expands seeds into its state.
//
// Everything here is deterministic given a seed, so every experiment in
// the repository is exactly reproducible.
package rng

import "math/bits"

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. Uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed integer in [0, n). It panics if
// n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method with rejection to remove bias.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo < n {
			// Threshold test: only reject in the biased band.
			thresh := -n % n
			if lo < thresh {
				continue
			}
		}
		return hi
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns an unbiased random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random (Fisher–Yates).
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleInt32 permutes p uniformly at random (Fisher–Yates).
func (r *Rand) ShuffleInt32(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Split returns a new independent Rand derived from this one. The child
// stream is seeded from the parent, so a single experiment seed fans out
// into reproducible per-task streams.
func (r *Rand) Split() *Rand {
	return NewFib(r.Uint64())
}
