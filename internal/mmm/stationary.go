package mmm

import (
	"errors"
	"math"
)

// StationaryOptions tunes the power iteration.
type StationaryOptions struct {
	// Damping mixes a uniform restart into the chain (the PageRank trick)
	// so reducible or periodic chains still converge to a unique
	// distribution. 0 selects DefaultDamping; pass a negative value for
	// no damping.
	Damping float64
	// Tolerance is the L1 convergence threshold; 0 selects 1e-10.
	Tolerance float64
	// MaxIter caps the iterations; 0 selects 1000.
	MaxIter int
}

// DefaultDamping is the uniform-restart probability used when none is
// specified.
const DefaultDamping = 0.05

// ErrNoConvergence is returned when the power iteration fails to reach the
// tolerance within MaxIter steps.
var ErrNoConvergence = errors.New("mmm: stationary distribution did not converge")

// Stationary computes the stationary distribution π = πA of a
// row-stochastic A1 block by damped power iteration. The distribution
// ranks states by long-run visit frequency — a useful archive-analysis
// signal (which shots does the affinity structure keep returning to?)
// and an alternative Π initialization for a trained model.
func Stationary(a *A1, opts StationaryOptions) ([]float64, error) {
	n := a.Rows()
	if n == 0 {
		return nil, ErrNoStates
	}
	if !a.IsRowStochastic(1e-6) {
		return nil, errors.New("mmm: transition matrix not row-stochastic")
	}
	damping := opts.Damping
	if damping == 0 {
		damping = DefaultDamping
	}
	if damping < 0 {
		damping = 0
	}
	tol := opts.Tolerance
	if tol <= 0 {
		tol = 1e-10
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 1000
	}

	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next, row := make([]float64, n), make([]float64, n)
	uniform := 1 / float64(n)
	for iter := 0; iter < maxIter; iter++ {
		for j := range next {
			next[j] = 0
		}
		// next = pi * A (left multiplication). Row i holds columns
		// [i, n); the zeros left of the diagonal would add nothing.
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			out := next[i:]
			for k, v := range a.Row(i, row) {
				if v != 0 {
					out[k] += float64(pi[i] * v)
				}
			}
		}
		if damping > 0 {
			for j := range next {
				next[j] = float64((1-damping)*next[j]) + float64(damping*uniform)
			}
		}
		var delta float64
		for j := range next {
			delta += math.Abs(next[j] - pi[j])
		}
		pi, next = next, pi
		if delta < tol {
			return pi, nil
		}
	}
	return nil, ErrNoConvergence
}
