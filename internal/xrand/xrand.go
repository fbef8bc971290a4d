// Package xrand provides small, deterministic pseudo-random utilities used
// throughout the corpus synthesizer and the experiment harness.
//
// Reproducibility is a hard requirement for this repository: every dataset,
// model, and experiment must be regenerable bit-for-bit from a seed. The
// standard library's math/rand is seedable but its algorithm is not
// guaranteed stable across Go releases, so the corpus generators use this
// package instead. The generator is splitmix64 (Steele, Lea, Vigna), which
// is tiny, fast, and passes BigCrush when used as documented.
package xrand

import "math"

// RNG is a deterministic splitmix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current generator
// state and a stream label. Two forks with different labels (or from
// different parent states) produce uncorrelated streams, which lets the
// corpus builder hand a private stream to each video without the streams
// interleaving.
func (r *RNG) Fork(label uint64) *RNG {
	// Mix the label in with two rounds so that consecutive labels do not
	// produce consecutive internal states.
	s := r.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	child := &RNG{state: s}
	child.Uint64()
	return child
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *RNG) Norm(mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(std*z)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a pseudo-random index in [0, len(weights)) with
// probability proportional to weights[i]. Non-positive weights are treated
// as zero. If every weight is zero, Choice falls back to a uniform pick.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	target := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target < 0 {
			return i
		}
	}
	return len(weights) - 1
}
