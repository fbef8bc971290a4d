package retrieval

import (
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Sim evaluates the Eq. 14 feature-weighted similarity between state s and
// event concept ev:
//
//	sim(s, e) = Σ_y P1,2(e, f_y) · (1 - |B1(s, f_y) - B1'(e, f_y)|) / B1'(e, f_y)
//
// over the features whose per-event mean B1'(e, f_y) exceeds
// DefaultSimEpsilon.
// With the engine's similarity cache (the default) this is a single table
// lookup; under Options.NoSimCache it recomputes the sum from the raw
// matrix rows. Both paths produce bit-identical values — the table is
// filled by the same kernel.
func (e *Engine) Sim(s int, ev videomodel.Event) float64 {
	if sh := e.shared; sh.sim != nil {
		return sh.sim[ev.Index()*sh.states+s]
	}
	ci := ev.Index()
	return simKernel(e.m.B1.Row(s), e.m.B1Prime.Row(ci), e.m.P12.Row(ci))
}

// simKernel is the shared Eq. 14 evaluation over one state row and one
// concept's mean/importance rows. The cached table and the direct path
// both call it, which is what guarantees bit-identical scores.
func simKernel(bRow, meanRow, pRow []float64) float64 {
	var sim float64
	for y, mean := range meanRow {
		if mean <= DefaultSimEpsilon {
			continue
		}
		d := bRow[y] - mean
		if d < 0 {
			d = -d
		}
		sim += pRow[y] * (1 - d) / mean
	}
	return sim
}

// buildSimTable precomputes sim(s, e) for every (state, concept) pair into
// a concept-major NumConcepts × NumStates table (sim(s, e) at
// table[e.Index()*NumStates+s]): a posting list walks ascending states of
// one concept, so its lookups are near-sequential. States are independent
// and each writes only its own column, so the fill fans out in contiguous
// state chunks — contiguous within every concept row — with bit-identical
// output for any GOMAXPROCS.
func buildSimTable(m *hmmm.Model) []float64 {
	n, c, k := m.NumStates(), m.NumConcepts(), m.K()
	table := make([]float64, n*c)
	b1, bp, p12 := m.B1.Flat(), m.B1Prime.Flat(), m.P12.Flat()
	par.ForChunks(n, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			bRow := b1[s*k : (s+1)*k]
			for ci := 0; ci < c; ci++ {
				table[ci*n+s] = simKernel(bRow, bp[ci*k:(ci+1)*k], p12[ci*k:(ci+1)*k])
			}
		}
	})
	return table
}
