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
	"slices"
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
// annotated shots). The result is row-stochastic and stores no row: it
// keeps the suffix counts S_i = Σ_{k≥i} NE(s_k), S_n = 0, and gen and
// genDiag compute each entry from them on read. A block whose counts sum
// past 2³¹ − 1 is refused.
func InitTemporalA(ne []int) (*A1, error) {
	n := len(ne)
	if n == 0 {
		return nil, ErrNoStates
	}
	for i, c := range ne {
		if c < 1 {
			return nil, fmt.Errorf("mmm: state %d has annotation count %d, want >= 1", i, c)
		}
	}
	a := &A1{n: n, suf: make([]int32, n+1)}
	suffix := 0
	for i := n - 1; i >= 0; i-- {
		if suffix += ne[i]; suffix > math.MaxInt32 {
			return nil, fmt.Errorf("mmm: annotation counts from state %d on sum past 2^31-1", i)
		}
		a.suf[i] = int32(suffix)
	}
	return a, nil
}

// gen is Eq. 1's A1(i, j) for i < j: NE(s_j) = S_j − S_{j+1} over
// S_i − 1. Both are integers below 2³¹, so each converts to float64
// exactly.
func (a *A1) gen(i, j int) float64 {
	return float64(a.suf[j]-a.suf[j+1]) / float64(a.suf[i]-1)
}

// genDiag is Eq. 1's A1(i, i).
func (a *A1) genDiag(i int) float64 {
	if i == a.n-1 {
		return 1
	}
	return float64(a.suf[i]-a.suf[i+1]-1) / float64(a.suf[i]-1)
}

// AccessPattern is one recorded user access: the ordered state indices the
// user traversed (or marked positive) and the access frequency access(k).
type AccessPattern struct {
	States []int // state indices in temporal order (shot level) or set order (video level)
	Freq   int   // access frequency; patterns with Freq <= 0 are ignored
}

// usedStates returns the distinct states pattern pi uses, ascending —
// use(m,k) is an indicator, not a count — or none when its frequency is
// not positive.
func usedStates(p AccessPattern, pi, n int) ([]int, error) {
	if p.Freq <= 0 {
		return nil, nil
	}
	for _, s := range p.States {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("mmm: pattern %d references state %d, model has %d states", pi, s, n)
		}
	}
	states := slices.Clone(p.States)
	slices.Sort(states)
	return slices.Compact(states), nil
}

// UpdateOptions tunes the feedback-driven affinity update.
type UpdateOptions struct {
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
// with: lightly smoothed, untrained rows preserved.
func DefaultUpdateOptions() UpdateOptions {
	return UpdateOptions{Smoothing: 0.01, KeepUntrained: true}
}

// UpdateA applies the Eq. (1)-(2) update: AF(m,n) = A(m,n) × (smoothing +
// co-access(m,n)), then per-row normalization. The prior is zero left of
// the diagonal, so only the co-access of pairs m ≤ n (T_{s_m} ≤ T_{s_n})
// counts, and it is summed row by row over the patterns using each
// state. The result shares the prior's generator and stores the rows
// whose normalized values differ from it; prior is not modified.
func UpdateA(prior *A1, patterns []AccessPattern, opts UpdateOptions) (*A1, error) {
	n := prior.Rows()
	// uses[m] lists, per pattern using state m, its frequency and the
	// states it uses from m on.
	type use struct {
		f     float64
		after []int
	}
	uses := make([][]use, n)
	for pi, p := range patterns {
		states, err := usedStates(p, pi, n)
		if err != nil {
			return nil, err
		}
		for k, m := range states {
			uses[m] = append(uses[m], use{float64(p.Freq), states[k:]})
		}
	}
	co, buf := make([]float64, n), make([]float64, n)
	gen := &A1{n: n, suf: prior.suf}
	return gen.rewrite(func(i int, o []float64) []float64 {
		p, c := prior.Row(i, buf), co[:n-i]
		clear(c)
		for _, u := range uses[i] {
			for _, s := range u.after {
				c[s-i] += u.f
			}
		}
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
		var sum float64
		for _, v := range o {
			sum += v
		}
		if sum != 0 {
			for k := range o {
				o[k] /= sum
			}
		}
		return o
	}), nil
}

// BuildAffinityA builds the video-level A2 from scratch per Eqs. (5)-(6):
// AF(m,n) = Σ_k use(m,k)·use(n,k)·access(k), with no temporal
// constraint, then A2(m,n) = AF(m,n) / Σ_n AF(m,n). The co-access is
// summed only over the rows some pattern uses, per row in pattern order;
// a row no pattern uses is uniform, 1/n, so A2 stays row-stochastic and
// stores only the used rows.
func BuildAffinityA(patterns []AccessPattern, n int) (*A2, error) {
	if n == 0 {
		return nil, ErrNoStates
	}
	// uses[m] lists, per pattern using state m, its frequency and the
	// states it uses.
	type use struct {
		f      float64
		states []int
	}
	uses := make([][]use, n)
	for pi, p := range patterns {
		states, err := usedStates(p, pi, n)
		if err != nil {
			return nil, err
		}
		for _, m := range states {
			uses[m] = append(uses[m], use{float64(p.Freq), states})
		}
	}
	return storeA2(n, 1/float64(n), func(m int, row []float64) []float64 {
		if uses[m] == nil {
			return nil
		}
		clear(row)
		for _, u := range uses[m] {
			for _, s := range u.states {
				row[s] += u.f
			}
		}
		// The sum holds AF(m,m) ≥ 1, so it is positive.
		var sum float64
		for _, v := range row {
			sum += v
		}
		for k := range row {
			row[k] /= sum
		}
		return row
	}), nil
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
func RowEntropy(a *A1) []float64 {
	out := make([]float64, a.Rows())
	buf := make([]float64, a.Rows())
	for i := range out {
		var h float64
		for _, p := range a.Row(i, buf) {
			if p > 0 {
				h -= float64(p * math.Log2(p))
			}
		}
		out[i] = h
	}
	return out
}

// MeanEntropy returns the average row entropy of a row-stochastic A1
// block, 0 for an empty one.
func MeanEntropy(a *A1) float64 {
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
