package retrieval

import (
	"github.com/videodb/hmmm/internal/hmmm"
)

// bfPath is a partial candidate during the baseline's exhaustive DFS. The
// engine's traversal uses arena-backed lattice cells instead; the baseline
// keeps the simple immutable-copy representation because its cost is
// dominated by enumeration, not allocation.
type bfPath struct {
	states  []int
	videos  []int // video index per step
	weights []float64
	w       float64 // current w_j
	score   float64 // running SS
}

func (p *bfPath) extend(state, video int, w float64) *bfPath {
	return &bfPath{
		states:  append(append([]int(nil), p.states...), state),
		videos:  append(append([]int(nil), p.videos...), video),
		weights: append(append([]float64(nil), p.weights...), w),
		w:       w,
		score:   p.score + w,
	}
}

// match materializes the completed path.
func (p *bfPath) match(m *hmmm.Model) Match {
	out := Match{
		States:  p.states,
		Weights: p.weights,
		Score:   p.score,
	}
	for i, s := range p.states {
		out.Shots = append(out.Shots, m.States[s].Shot)
		out.Videos = append(out.Videos, m.VideoIDs[p.videos[i]])
	}
	return out
}

// BruteForce exhaustively enumerates every temporally ordered sequence of
// annotated states matching the query events within each video, scores each
// with the same Eqs. 12-15 the engine uses, and returns the global top-K
// ranking.
//
// This is the comparison baseline for the paper's claim that the HMMM
// traversal "can assist in retrieving more accurate patterns quickly with
// lower computational costs": the baseline's ranking is exact (it considers
// every annotation-consistent candidate), but its cost grows with the
// product of per-event candidate counts, while the engine expands only the
// stochastically promising paths.
func BruteForce(m *hmmm.Model, q Query, topK int) (*Result, error) {
	if err := q.validateFor(m.NumConcepts()); err != nil {
		return nil, err
	}
	steps := q.Steps
	if topK <= 0 {
		topK = DefaultTopK
	}
	eng, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for vi := 0; vi < m.NumVideos(); vi++ {
		if q.Scope != nil && q.Scope.Video != 0 && m.VideoIDs[vi] != q.Scope.Video {
			continue
		}
		res.Cost.VideosSeen++
		lo, hi := m.VideoStates(vi)
		if lo == hi {
			continue
		}
		var dfs func(j, after int, p *bfPath)
		dfs = func(j, after int, p *bfPath) {
			if j == len(steps) {
				res.Matches = append(res.Matches, p.match(m))
				return
			}
			st := steps[j]
			start := lo
			if after >= 0 {
				start = after + 1
			}
			for s := start; s < hi; s++ {
				if !q.Scope.contains(m.StartMS(s)) {
					continue
				}
				if !stateHasStep(&m.States[s], st) {
					continue
				}
				if after >= 0 && !st.gapOK(m.StartMS(after), m.StartMS(s)) {
					continue
				}
				var w float64
				if j == 0 {
					w = m.Pi1.At(s) * eng.simCounted(s, st, &res.Cost)
				} else {
					res.Cost.EdgeEvals++
					prev := p.states[len(p.states)-1]
					w = p.w * eng.transition(vi, prev, s) * eng.simCounted(s, st, &res.Cost)
				}
				dfs(j+1, s, p.extend(s, vi, w))
			}
		}
		dfs(0, -1, &bfPath{})
	}
	sortMatches(res.Matches)
	if len(res.Matches) > topK {
		res.Matches = res.Matches[:topK]
	}
	return res, nil
}

// GroundTruthCount returns the total number of annotation-consistent
// candidate sequences for the query (the size of the space BruteForce
// enumerates), without scoring them. The experiments use it to report the
// search-space reduction achieved by the stochastic traversal.
//
// Queries without gap constraints use a right-to-left dynamic program;
// gap-constrained queries fall back to explicit enumeration (their
// candidate spaces are small by construction).
func GroundTruthCount(m *hmmm.Model, q Query) int {
	if q.validateFor(m.NumConcepts()) != nil {
		return 0
	}
	constrained := q.Scope != nil
	for _, st := range q.Steps {
		if st.MinGapMS > 0 || st.MaxGapMS > 0 {
			constrained = true
			break
		}
	}
	total := 0
	for vi := 0; vi < m.NumVideos(); vi++ {
		if q.Scope != nil && q.Scope.Video != 0 && m.VideoIDs[vi] != q.Scope.Video {
			continue
		}
		lo, hi := m.VideoStates(vi)
		if lo == hi {
			continue
		}
		if constrained {
			total += countConstrained(m, q.Steps, q.Scope, lo, hi)
			continue
		}
		// counts[j][s] = number of ways to complete steps j.. starting at
		// state >= s. Computed right to left.
		c := len(q.Steps)
		prev := make([]int, hi-lo+1)
		for j := c - 1; j >= 0; j-- {
			cur := make([]int, hi-lo+1)
			for s := hi - 1; s >= lo; s-- {
				cur[s-lo] = cur[s-lo+1]
				if stateHasStep(&m.States[s], q.Steps[j]) {
					if j == c-1 {
						cur[s-lo]++
					} else {
						cur[s-lo] += prev[s-lo+1]
					}
				}
			}
			prev = cur
		}
		total += prev[0]
	}
	return total
}

// countConstrained enumerates gap- or scope-constrained sequences within
// one video.
func countConstrained(m *hmmm.Model, steps []Step, scope *Scope, lo, hi int) int {
	var dfs func(j, after int) int
	dfs = func(j, after int) int {
		if j == len(steps) {
			return 1
		}
		st := steps[j]
		start := lo
		if after >= 0 {
			start = after + 1
		}
		n := 0
		for s := start; s < hi; s++ {
			if !scope.contains(m.StartMS(s)) {
				continue
			}
			if !stateHasStep(&m.States[s], st) {
				continue
			}
			if after >= 0 && !st.gapOK(m.StartMS(after), m.StartMS(s)) {
				continue
			}
			n += dfs(j+1, s)
		}
		return n
	}
	return dfs(0, -1)
}
