package retrieval

import (
	"math"
	"math/bits"
	"slices"

	"github.com/videodb/hmmm/internal/par"
)

// Certified pruning for exact search.
//
// A complete within-video match s_1 < … < s_C scores (Eqs. 12, 13, 15)
//
//	SS = Σ_j w_j,  w_1 = Π1(s_1)·simStep(s_1, 1),
//	               w_j = w_{j−1}·A1(s_{j−1}, s_j)·simStep(s_j, j),
//
// where simStep averages sim(s, c) over the step's positive events c and,
// under AnnotatedOnly, s_j carries every one of them. Two per-video
// tables bound the factors:
//
//	entry[v][c]      = max Π1(s)·sim(s, c)       over s ∈ posting(v, c)
//	pair[v][c1][c2]  = max A1(s, t)·sim(t, c2)   over s ∈ posting(v, c1),
//	                                                t ∈ posting(v, c2), t > s
//
// so w_1 ≤ W_1 = avg_{c ∈ step 1} entry[v][c], and each later factor
// A1·simStep ≤ F_j = avg_{c2 ∈ step j} min_{c1 ∈ step j−1} pair[v][c1][c2]
// (s_{j−1} carries every c1, so each pair entry bounds the factor and the
// minimum is the tightest). Every quantity is non-negative, hence
// w_j ≤ W_j = W_{j−1}·F_j and SS ≤ UB = Σ_j W_j. Negation, scope windows
// and gap constraints only shrink the candidate sets the maxima range
// over, so UB stays a bound under all of them. It does not cover
// similarity-fallback candidates (AnnotatedOnly off) or cross-video hops
// (an A2 factor); the engine does not prune there.
//
// Rounding. Π1, A1 and sim are float64 inputs shared by the lattice and
// the tables, so only arithmetic rounding separates the computed score
// from the computed bound. Along one path the lattice performs fewer than
// T = 3·Σ_j(|E_j| + 2) correctly rounded operations on non-negative
// operands, each off by a relative u = 2⁻⁵³ at most; the tables round
// each product once and then toward +∞ into 16 bits (never below the
// float64 product); the bound evaluation and the widening round fewer
// than T times more, all told. So computed SS ≤ (1−u)^(−T) · computed UB
// ≤ (1 + T·2⁻⁵²) · computed UB for any query that fits in memory, and
// boundSlack widens every bound by that factor. A prune compares the
// widened bound strictly against the score of a match the engine already
// holds.

// bounds holds the per-video factor tables in a compact layout: only the
// concepts a video carries (a non-empty posting list) get a slot. mask[v]
// has bit c set for each such concept; a concept's rank among them is the
// popcount of the lower bits. Video v's block is
// vals[off[v]:off[v+1]] — its P entry factors by rank, then its P×P pair
// factors row-major by (c1 rank, c2 rank). Values are 16-bit floats
// (roundUp16) rounded toward +∞: a bound only needs to be safe, and the
// 2⁻⁸ relative slack costs about 6 % more expanded videos on the 100×
// archive where float32 would double the tables.
type bounds struct {
	mask []uint16
	off  []int32
	vals []uint16
}

// buildBounds fills the bound tables from the model's Π1/A1 and
// the engine's Eq. 14 values (read through Sim, so NoSimCache engines
// build them too). buildShared calls it once per set of caches, so a
// published engine never pays the build inside a query. Each video owns
// its block, so the fill fans out over workers with bit-identical
// contents for any count. It returns nil — the engine then never prunes
// — when some Π1 or sim value is negative or NaN, which the argument
// above excludes (validateModel already rejects negative Π1 and A1; an
// Eq. 14 term can dip below zero only through Validate's B1 tolerance).
func (e *Engine) buildBounds(workers int) *bounds {
	sh := e.shared
	c, nv := sh.concepts, sh.nVideos
	b := &bounds{mask: make([]uint16, nv), off: make([]int32, nv+1)}
	for v := 0; v < nv; v++ {
		var mask uint16
		for ci := 0; ci < c; ci++ {
			if k := v*c + ci; sh.postOff[k+1] > sh.postOff[k] {
				mask |= 1 << ci
			}
		}
		p := int32(bits.OnesCount16(mask))
		b.mask[v] = mask
		b.off[v+1] = b.off[v] + p + p*p
	}
	b.vals = make([]uint16, b.off[nv])
	ok := make([]bool, nv)
	par.ForChunks(workers, nv, func(lo, hi int) {
		var fl videoFlat
		for v := lo; v < hi; v++ {
			ok[v] = e.fillBound(b, v, &fl)
		}
	})
	if slices.Contains(ok, false) {
		return nil
	}
	return b
}

// videoFlat is one video's states flattened for the table fill: local
// state li's annotations are rank[off[li]:off[li+1]] with their sims
// beside them, so the pair pass reads no hmmm.State. colMax and blk are
// the fill's scratch.
type videoFlat struct {
	off    []int32
	rank   []uint8
	sim    []float64
	colMax []float64
	blk    []float64
}

// fillBound computes video v's block, reporting false on a negative or
// NaN Π1 or sim value.
//
// The pair pass reads the A1 upper triangle once, row by row, keeping
// colMax[r1·n + t] = max A1(s, t) over s < t carrying the rank-r1
// concept. Since sim ≥ 0, pair[r1][r2] = max over t carrying r2 of
// colMax[r1·n + t]·sim(t, r2); rounding is monotone, so that is the same
// float64 as the maximum over every (s, t) pair of the rounded product.
func (e *Engine) fillBound(b *bounds, v int, fl *videoFlat) bool {
	m := e.m
	mask := b.mask[v]
	p := bits.OnesCount16(mask)
	lo, hi := m.VideoStates(v)
	n := hi - lo
	fl.off, fl.rank, fl.sim = append(fl.off[:0], 0), fl.rank[:0], fl.sim[:0]
	fl.blk = slices.Grow(fl.blk[:0], p+p*p)[:p+p*p]
	fl.colMax = slices.Grow(fl.colMax[:0], p*n)[:p*n]
	clear(fl.blk)
	clear(fl.colMax)
	entry, pair := fl.blk[:p], fl.blk[p:]
	for s := lo; s < hi; s++ {
		for _, ev := range m.States[s].Events {
			if !ev.Valid() {
				continue
			}
			sim, pi := e.Sim(s, ev), m.Pi1[s]
			if !(sim >= 0 && pi >= 0) {
				return false
			}
			r := conceptRank(mask, ev.Index())
			entry[r] = max(entry[r], pi*sim)
			fl.rank = append(fl.rank, uint8(r))
			fl.sim = append(fl.sim, sim)
		}
		fl.off = append(fl.off, int32(len(fl.rank)))
	}
	a := m.LocalA[v]
	for si := 0; si < n; si++ {
		row := a.Row(si)[si+1:]
		for _, r1 := range fl.rank[fl.off[si]:fl.off[si+1]] {
			col := fl.colMax[int(r1)*n+si+1 : int(r1+1)*n]
			col = col[:len(row)]
			for i, x := range row {
				if x > col[i] {
					col[i] = x
				}
			}
		}
	}
	for ti := 0; ti < n; ti++ {
		for k := fl.off[ti]; k < fl.off[ti+1]; k++ {
			r2, sim := int(fl.rank[k]), fl.sim[k]
			for r1 := 0; r1 < p; r1++ {
				if w := fl.colMax[r1*n+ti] * sim; w > pair[r1*p+r2] {
					pair[r1*p+r2] = w
				}
			}
		}
	}
	out := b.vals[b.off[v]:b.off[v+1]]
	for i, x := range fl.blk {
		out[i] = roundUp16(x)
	}
	return true
}

// conceptRank is concept ci's slot among the concepts set in mask.
func conceptRank(mask uint16, ci int) int {
	return bits.OnesCount16(mask & (1<<ci - 1))
}

// roundUp16 rounds a non-negative float64 up to a 16-bit float: the
// float32 not below it, with the (always clear) sign bit dropped and the
// mantissa cut to 8 bits, rounding up — for a non-negative float,
// incrementing the bit pattern moves toward +∞.
func roundUp16(x float64) uint16 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	b := math.Float32bits(f)
	h := uint16(b >> 15)
	if b&(1<<15-1) != 0 {
		h++
	}
	return h
}

// widen decodes a roundUp16 value.
func widen(h uint16) float64 { return float64(math.Float32frombits(uint32(h) << 15)) }

// boundSlack is the relative widening the rounding argument above needs
// for a query with these steps.
func boundSlack(steps []Step) float64 {
	t := 0
	for _, st := range steps {
		t += 3 * (len(st.Events) + 2)
	}
	return 1 + float64(t)*0x1p-52
}

// videoBound returns UB for video v, widened by slack: no complete
// within-video match of steps in v scores above it. A video missing one
// of a step's positive events has no candidate at that step and bounds
// to 0.
func (b *bounds) videoBound(v int, steps []Step, slack float64) float64 {
	mask := b.mask[v]
	for _, st := range steps {
		for _, ev := range st.Events {
			if mask&(1<<ev.Index()) == 0 {
				return 0
			}
		}
	}
	p := bits.OnesCount16(mask)
	blk := b.vals[b.off[v]:b.off[v+1]]
	var w float64
	for _, ev := range steps[0].Events {
		w += widen(blk[conceptRank(mask, ev.Index())])
	}
	w /= float64(len(steps[0].Events))
	ub := w
	for j := 1; j < len(steps); j++ {
		var f float64
		for _, e2 := range steps[j].Events {
			pair := blk[p+conceptRank(mask, e2.Index()):]
			least := math.Inf(1)
			for _, e1 := range steps[j-1].Events {
				least = min(least, widen(pair[conceptRank(mask, e1.Index())*p]))
			}
			f += least
		}
		w *= f / float64(len(steps[j].Events))
		ub += w
	}
	return ub * slack
}

// prunes reports whether a retrieval under this engine and scope may skip
// videos by bound: exact, annotation-only, within-video search over the
// whole archive.
func (e *Engine) prunes(scope *Scope) bool {
	o := &e.opts
	return o.AnnotatedOnly && !o.CrossVideo && !o.StopAfterMatches && o.CoarseCandidates == 0 &&
		(scope == nil || scope.Video == 0) && e.shared.bound != nil
}

// videoBoundEntry is one candidate video on the certified visit queue.
type videoBoundEntry struct {
	ub float64
	v  int32
}

// before reports whether a is visited before b: the larger bound first,
// ties toward the lower video index.
func (a videoBoundEntry) before(b videoBoundEntry) bool {
	if a.ub != b.ub {
		return a.ub > b.ub
	}
	return a.v < b.v
}

// queueBounds fills the arena's visit queue with the Step-2 candidates —
// the videos passing the first step's B2 check, exactly the set the
// exhaustive order walks under AnnotatedOnly — keyed by their bounds, as a
// max-heap in visit order. The Π2/A2 greedy walk is skipped: the visit
// order cannot change an exact ranking.
func (e *Engine) queueBounds(ar *arena, steps []Step) {
	b := e.shared.bound
	slack := boundSlack(steps)
	q := ar.queue[:0]
	for v := 0; v < e.shared.nVideos; v++ {
		if e.videoHasStep(v, steps[0]) {
			q = append(q, videoBoundEntry{ub: b.videoBound(v, steps, slack), v: int32(v)})
		}
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftQueue(q, i)
	}
	ar.queue = q
	ar.best = ar.best[:0]
}

// nextBounded pops the next video to visit, or returns -1 when the queue
// is empty or its best remaining bound is strictly below best[0], the
// K-th best admitted score: then no remaining video can place a match in
// the top k.
func (ar *arena) nextBounded(k int) int {
	q := ar.queue
	if len(q) == 0 || (len(ar.best) == k && q[0].ub < ar.best[0]) {
		return -1
	}
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	siftQueue(q, 0)
	ar.queue = q
	return int(top.v)
}

// siftQueue restores the visit-order heap property below i.
func siftQueue(q []videoBoundEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[i]) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// keepBest records an admitted match score in best, a min-heap of the k
// largest scores seen, so best[0] is the K-th best once it holds k.
func (ar *arena) keepBest(score float64, k int) {
	h := ar.best
	if len(h) < k {
		h = append(h, score)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		ar.best = h
		return
	}
	if score <= h[0] {
		return
	}
	h[0] = score
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
