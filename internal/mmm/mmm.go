// Package mmm implements the single-level Markov Model Mediator: the
// (A, B, Π) triple of Section 4 and its construction and training rules.
//
// A level of an HMMM is an MMM: states with a transition (affinity) matrix
// A, a state×feature matrix B, and an initial-state distribution Π. This
// package provides
//
//   - the temporal A1 initialization from annotation counts
//     (Section 4.2.1.1 (1), verified against the paper's worked example);
//   - the feedback-driven affinity update, Eqs. (1)-(2) for the temporal
//     shot level and Eqs. (5)-(6) for the video level;
//   - the initial-state distribution estimate, Eq. (4).
//
// The hierarchical composition (P1,2, B1', L1,2) lives in package hmmm.
package mmm

import (
	"errors"
	"fmt"
	"math"

	"github.com/videodb/hmmm/internal/matrix"
)

// ErrNoStates is returned when a construction function receives zero states.
var ErrNoStates = errors.New("mmm: model has no states")

// InitTemporalA builds the initial shot-level transition matrix A1 from the
// per-state annotation counts ne (NE(s_i) in the paper), following
// Section 4.2.1.1 (1) exactly:
//
//	A1(i,j) = 0                                    for j < i
//	A1(i,j) = NE(s_j)   / (Σ_{k=i..N} NE(s_k) - 1) for i < j
//	A1(i,i) = (NE(s_i)-1)/(Σ_{k=i..N} NE(s_k) - 1) for i < N
//	A1(N,N) = 1
//
// States must be in temporal order and every count must be >= 1 (states are
// annotated shots). The result is row-stochastic, packed as the upper
// triangle it is.
func InitTemporalA(ne []int) (*matrix.Upper, error) {
	n := len(ne)
	if n == 0 {
		return nil, ErrNoStates
	}
	for i, c := range ne {
		if c < 1 {
			return nil, fmt.Errorf("mmm: state %d has annotation count %d, want >= 1", i, c)
		}
	}
	// Suffix sums of NE.
	suffix := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + ne[i]
	}
	a := matrix.NewUpper(n)
	for i := 0; i < n; i++ {
		if i == n-1 {
			a.Set(i, i, 1)
			continue
		}
		denom := float64(suffix[i] - 1)
		a.Set(i, i, float64(ne[i]-1)/denom)
		for j := i + 1; j < n; j++ {
			a.Set(i, j, float64(ne[j])/denom)
		}
	}
	return a, nil
}

// AccessPattern is one recorded user access: the ordered state indices the
// user traversed (or marked positive) and the access frequency access(k).
type AccessPattern struct {
	States []int // state indices in temporal order (shot level) or set order (video level)
	Freq   int   // access frequency; patterns with Freq <= 0 are ignored
}

// CoAccess computes the Σ_k use(m,k)·use(n,k)·access(k) term shared by
// Eq. (1) and Eq. (5) over n states. With temporal true, only pairs with
// m <= n contribute (the Eq. (1) constraint T_{s_m} <= T_{s_n}; state
// indices are temporal order at the shot level). Out-of-range state
// indices in a pattern are reported as an error.
func CoAccess(patterns []AccessPattern, n int, temporal bool) (*matrix.Dense, error) {
	co := matrix.NewDense(n, n)
	for pi, p := range patterns {
		if p.Freq <= 0 {
			continue
		}
		// De-duplicate: use(m,k) is an indicator, not a count.
		seen := make(map[int]bool, len(p.States))
		for _, s := range p.States {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("mmm: pattern %d references state %d, model has %d states", pi, s, n)
			}
			seen[s] = true
		}
		states := make([]int, 0, len(seen))
		for s := range seen {
			states = append(states, s)
		}
		f := float64(p.Freq)
		for _, m := range states {
			for _, nn := range states {
				if temporal && m > nn {
					continue
				}
				co.Add(m, nn, f)
			}
		}
	}
	return co, nil
}

// UpdateOptions tunes the feedback-driven affinity update.
type UpdateOptions struct {
	// Temporal restricts reinforcement to pairs with m <= n (shot level).
	Temporal bool
	// Smoothing is added to every co-access count before multiplying by
	// the prior, so states never co-accessed retain a sliver of their
	// prior probability instead of collapsing to zero. Zero smoothing is
	// the literal Eq. (1).
	Smoothing float64
	// KeepUntrained leaves rows with no co-access mass at their prior
	// values instead of zeroing them.
	KeepUntrained bool
}

// DefaultUpdateOptions returns the options the retrieval system trains
// with: temporal, lightly smoothed, untrained rows preserved.
func DefaultUpdateOptions() UpdateOptions {
	return UpdateOptions{Temporal: true, Smoothing: 0.01, KeepUntrained: true}
}

// UpdateA applies the Eq. (1)-(2) update: AF(m,n) = A(m,n) × (smoothing +
// co-access(m,n)), then per-row normalization. The prior is an A1 block,
// zero left of the diagonal, so the update only ever touches its upper
// triangle and returns a fresh packed block; prior is not modified.
func UpdateA(prior *matrix.Upper, patterns []AccessPattern, opts UpdateOptions) (*matrix.Upper, error) {
	n := prior.Rows()
	co, err := CoAccess(patterns, n, opts.Temporal)
	if err != nil {
		return nil, err
	}
	out := matrix.NewUpper(n)
	for i := 0; i < n; i++ {
		p, o, c := prior.Row(i), out.Row(i), co.Row(i)[i:]
		trained := false
		for k, a := range p {
			if c[k] > 0 && a > 0 {
				trained = true
			}
			o[k] = a * (opts.Smoothing + c[k])
		}
		if !trained && opts.KeepUntrained {
			copy(o, p)
		}
	}
	out.NormalizeRows()
	return out, nil
}

// BuildAffinityA builds the video-level A2 from scratch per Eqs. (5)-(6):
// co-access counts (no temporal constraint), row-normalized. Rows with no
// observations become uniform so A2 stays row-stochastic.
func BuildAffinityA(patterns []AccessPattern, n int) (*matrix.Dense, error) {
	if n == 0 {
		return nil, ErrNoStates
	}
	co, err := CoAccess(patterns, n, false)
	if err != nil {
		return nil, err
	}
	co.NormalizeRows()
	co.SmoothRows()
	return co, nil
}

// BuildPi estimates the initial-state distribution from access patterns per
// Eq. (4). With initialOnly true it counts only occurrences of a state as
// the first state of a pattern (the textual definition in Section 4.2.1.3);
// with false it counts every usage (the literal formula). Either way the
// counts are weighted by access frequency and normalized; with no usable
// patterns the distribution is uniform.
func BuildPi(patterns []AccessPattern, n int, initialOnly bool) ([]float64, error) {
	if n == 0 {
		return nil, ErrNoStates
	}
	pi := make([]float64, n)
	var total float64
	for pidx, p := range patterns {
		if p.Freq <= 0 || len(p.States) == 0 {
			continue
		}
		f := float64(p.Freq)
		if initialOnly {
			s := p.States[0]
			if s < 0 || s >= n {
				return nil, fmt.Errorf("mmm: pattern %d references state %d, model has %d states", pidx, s, n)
			}
			pi[s] += f
			total += f
			continue
		}
		seen := make(map[int]bool, len(p.States))
		for _, s := range p.States {
			if s < 0 || s >= n {
				return nil, fmt.Errorf("mmm: pattern %d references state %d, model has %d states", pidx, s, n)
			}
			if !seen[s] {
				seen[s] = true
				pi[s] += f
				total += f
			}
		}
	}
	if total == 0 {
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		return pi, nil
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi, nil
}

// RowEntropy returns the Shannon entropy (bits) of each row of a
// row-stochastic A1 block. Entropy is a training diagnostic: feedback
// reinforcement concentrates each row's probability mass on confirmed
// successors, so mean row entropy falls as the model learns. Only the
// stored upper triangle is read: the zeros left of the diagonal add
// nothing.
func RowEntropy(a *matrix.Upper) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		var h float64
		for _, p := range a.Row(i) {
			if p > 0 {
				h -= p * math.Log2(p)
			}
		}
		out[i] = h
	}
	return out
}

// MeanEntropy returns the average row entropy of a row-stochastic A1
// block, 0 for an empty one.
func MeanEntropy(a *matrix.Upper) float64 {
	rows := RowEntropy(a)
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, h := range rows {
		sum += h
	}
	return sum / float64(len(rows))
}
