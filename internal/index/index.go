// Package index implements the coarse candidate-generation stage of the
// two-stage (coarse→fine) retrieval pipeline: a compressed inverted
// video index plus approximate per-video scores, both derived from the
// HMMM's own cross-level matrices.
//
// The exact Figure-2/Figure-3 traversal in package retrieval is linear
// in the number of videos — every query orders the whole archive by
// Π2/A2 affinity and walks a lattice per video. At paper scale (54
// videos) that is the right trade; at the ROADMAP's million-shot scale
// it is not. Browse-scale engines split retrieval into cheap
// approximate candidate generation followed by exact re-ranking; this
// package is the candidate generator, and the exact engine runs only on
// the survivors.
//
// Two structures are precomputed per model:
//
//   - Per-concept postings: the ascending video indices whose B2 row
//     counts the concept, delta-encoded as uvarints — the same
//     membership test the exact engine's Step-2 B2 check performs, in a
//     fraction of the bytes.
//   - Per-(video, concept) score tables, quantized to float32: the
//     maximum Eq. 14 similarity sim(s, c) over the video's states
//     annotated with c, the maximum entry mass Π1(s)·sim(s, c) over
//     the same states, and — per concept pair — the maximum joint
//     A1(s, s')·sim(s', c2) from a c1-annotated to a c2-annotated
//     state. A query's proxy score multiplies, per step,
//     avg_c maxΠ1Sim(v, c) for the entry step and avg_c of the joint
//     edge table for each transition. The proxy is a heuristic ranking
//     signal, not a bound: the product of per-step factors tracks only
//     the last prefix product of a path's weights, not Eq. 15's sum of
//     all of them, and the float32 tables round to nearest. The
//     certified per-video bound exact search prunes with lives in
//     package retrieval (bound.go). The A1 edge table is what makes the
//     proxy discriminate on archives whose per-class features cluster
//     tightly (similarities nearly uniform across videos): there the
//     exact ranking is driven by temporal-affinity decay, which a
//     sim-only proxy cannot see.
//
// The proxy never replaces exact scoring — it only chooses which videos
// the exact lattice visits — so coarse→fine results are always a subset
// of the exact ranking, gated by the recall@K differential harness in
// retrieval/retrievaltest. The structures are immutable after Build, as
// is the model they are derived from.
package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/videodb/hmmm/internal/hmmm"
)

// Coarse is the immutable coarse-stage index over one model.
type Coarse struct {
	videos, concepts int
	// postings[ci] holds the ascending video indices with B2(v, ci) > 0,
	// encoded as uvarint deltas (first value absolute, then gaps).
	postings [][]byte
	// counts[ci] is the decoded length of postings[ci].
	counts []int
	// sims is row-major videos × concepts: the max Eq. 14 sim(s, ci)
	// over video v's states annotated with ci, 0 when v has none.
	sims []float32
	// piSims is row-major videos × concepts: the max Π1(s)·sim(s, ci)
	// over the same states — the entry-step factor of the proxy score.
	piSims []float32
	// edges is row-major videos × concepts × concepts: the max joint
	// A1(s, s')·sim(s', c2) over a c1-annotated state s and a
	// c2-annotated state s' of the video, 0 when no such pair is
	// connected — the transition factor of the proxy score. Folding the
	// landing state's similarity into the edge keeps the bound tight
	// when the state reachable by the best edge is not the one with the
	// best similarity.
	edges []float32
	// maxPi1[v] is the largest Π1 entry among v's states.
	maxPi1 []float32
}

// Build derives the coarse index from the model's B1/B1'/P12 rows and
// annotations. eps is the Eq. 14 denominator floor (the engine passes
// retrieval.DefaultSimEpsilon so coarse and exact agree on which features
// count). m must be valid (hmmm.Model.Validate): every annotation lies
// on the concept axis.
// Cost is O(annotations × K) for the score table plus O(videos ×
// concepts) for the postings — a small fraction of the engine's dense
// similarity-table build.
func Build(m *hmmm.Model, eps float64) *Coarse {
	mv, c, k := m.NumVideos(), m.NumConcepts(), m.K()
	ix := &Coarse{
		videos:   mv,
		concepts: c,
		postings: make([][]byte, c),
		counts:   make([]int, c),
		sims:     make([]float32, mv*c),
		piSims:   make([]float32, mv*c),
		edges:    make([]float32, mv*c*c),
		maxPi1:   make([]float32, mv),
	}
	b1, bp, p12 := m.B1.Flat(), m.B1Prime.Flat(), m.P12.Flat()
	// stateSims[s] holds sim(s, ci) parallel to States[s].Events — a
	// transient scratch the edge-table pass reuses so each (state,
	// concept) similarity is computed once.
	stateSims := make([][]float64, len(m.States))
	for vi := 0; vi < mv; vi++ {
		lo, hi := m.VideoStates(vi)
		for s := lo; s < hi; s++ {
			st := &m.States[s]
			if p := float32(m.Pi1.At(s)); p > ix.maxPi1[vi] {
				ix.maxPi1[vi] = p
			}
			if len(st.Events) == 0 {
				continue
			}
			ss := make([]float64, len(st.Events))
			for ei, ev := range st.Events {
				ci := ev.Index()
				sim := simKernel(b1[s*k:(s+1)*k], bp[ci*k:(ci+1)*k], p12[ci*k:(ci+1)*k], eps)
				ss[ei] = sim
				if f := float32(sim); f > ix.sims[vi*c+ci] {
					ix.sims[vi*c+ci] = f
				}
				if f := float32(m.Pi1.At(s) * sim); f > ix.piSims[vi*c+ci] {
					ix.piSims[vi*c+ci] = f
				}
			}
			stateSims[s] = ss
		}
	}
	// The joint edge table: per video, max A1(s, t)·sim(t, c2) over
	// every ordered pair of annotated states, bucketed by the pair's
	// concept annotations. Quadratic in a video's annotated states — a
	// few thousand A1 lookups per video at 100x archive scale,
	// amortized once per build.
	for vi := 0; vi < mv; vi++ {
		lo, hi := m.VideoStates(vi)
		a := m.LocalA[vi]
		erow := ix.edges[vi*c*c : (vi+1)*c*c]
		for s := lo; s < hi; s++ {
			if len(m.States[s].Events) == 0 {
				continue
			}
			for t := lo; t < hi; t++ {
				if len(m.States[t].Events) == 0 {
					continue
				}
				w := a.At(s-lo, t-lo)
				if w == 0 {
					continue
				}
				for _, e1 := range m.States[s].Events {
					for j2, e2 := range m.States[t].Events {
						f := float32(w * stateSims[t][j2])
						if p := e1.Index()*c + e2.Index(); f > erow[p] {
							erow[p] = f
						}
					}
				}
			}
		}
	}
	for ci := 0; ci < c; ci++ {
		var buf []byte
		prev := 0
		n := 0
		for v := 0; v < mv; v++ {
			if m.B2.At(v, ci) == 0 {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(v-prev))
			prev = v
			n++
		}
		ix.postings[ci] = buf
		ix.counts[ci] = n
	}
	return ix
}

// simKernel mirrors the retrieval package's Eq. 14 kernel (kept in sync
// by TestSimKernelMatchesEngine). The coarse score table quantizes its
// output to float32, so the mirror only needs to match in double
// precision before rounding.
func simKernel(bRow, meanRow, pRow []float64, eps float64) float64 {
	var sim float64
	for y, mean := range meanRow {
		if mean <= eps {
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

// PostingLen returns the number of videos whose B2 row counts concept ci.
func (ix *Coarse) PostingLen(ci int) int { return ix.counts[ci] }

// Postings appends concept ci's ascending video indices to buf and
// returns the extended slice.
func (ix *Coarse) Postings(ci int, buf []int) []int {
	data := ix.postings[ci]
	prev := 0
	for len(data) > 0 {
		d, n := binary.Uvarint(data)
		if n <= 0 {
			panic(fmt.Sprintf("index: corrupt posting list for concept %d", ci))
		}
		data = data[n:]
		prev += int(d)
		buf = append(buf, prev)
	}
	return buf
}

// Score returns the heuristic proxy score of video v for a query whose
// steps are given as concept-index lists. The first (non-empty) step
// contributes avg_c maxΠ1Sim(v, c) — the best entry mass times
// similarity any of v's states offers; each following step contributes
// avg_c of the joint edge table, minimized over the previous step's
// concepts (a matched state pair carries every concept of its steps, so
// each pairwise entry is optimistic for it). The product of the factors
// is not an upper bound on Eq. 15's score — that score sums every
// prefix product, and the float32 tables round to nearest — so Score is
// a ranking proxy only; retrieval's certified bound (bound.go) sums the
// prefix products over tables rounded up. Videos with no annotated state
// for a step's concepts (or no connecting A1 edge) contribute that
// factor as 0. Empty steps contribute no factor; a query of only empty
// steps falls back to maxΠ1(v).
func (ix *Coarse) Score(v int, steps [][]int) float64 {
	score := 1.0
	var prev []int
	for _, cs := range steps {
		if len(cs) == 0 {
			continue
		}
		var sum float64
		if prev == nil {
			for _, ci := range cs {
				sum += float64(ix.piSims[v*ix.concepts+ci])
			}
		} else {
			base := v * ix.concepts * ix.concepts
			for _, c2 := range cs {
				best := math.Inf(1)
				for _, c1 := range prev {
					if w := float64(ix.edges[base+c1*ix.concepts+c2]); w < best {
						best = w
					}
				}
				sum += best
			}
		}
		score *= sum / float64(len(cs))
		prev = cs
	}
	if prev == nil {
		return float64(ix.maxPi1[v])
	}
	return score
}

// Candidates prunes a query to at most limit videos. steps lists the
// query's concept indices per step (retrieval.Step.Events mapped through
// Event.Index). The candidate pool is the intersection of the first
// step's postings — exactly the videos the exact engine's Step-2 B2
// check admits — unless all is set (the engine's similarity-fallback
// mode, AnnotatedOnly=false), in which case every video is scored.
// The pool is ranked by Score with ties broken toward the smaller video
// index, truncated to limit, and returned in ascending video order so
// the exact stage's greedy Π2/A2 walk sees the survivors the same way
// it sees the full candidate set. When limit <= 0 or limit covers the
// whole pool, the pool is returned unpruned (and unscored).
//
// The second result is the number of videos scored, which the engine
// accounts as coarse-stage work in Cost.EdgeEvals.
func (ix *Coarse) Candidates(steps [][]int, limit int, all bool) ([]int, int) {
	if len(steps) == 0 {
		return nil, 0
	}
	var pool []int
	if all {
		pool = make([]int, ix.videos)
		for v := range pool {
			pool[v] = v
		}
	} else {
		pool = ix.intersectFirst(steps[0])
	}
	if limit <= 0 || limit >= len(pool) {
		return pool, 0
	}
	// Bounded selection: a heap of the limit best videos under the
	// (score descending, video ascending) ranking, rooted at the worst
	// survivor so each new video needs only one comparison against the
	// eviction threshold. O(pool·log limit) with a limit-sized allocation,
	// where the full sort this replaces was the coarse stage's hot spot
	// at archive scale. The ranking is a strict total order (video
	// indices are distinct), so the surviving set is exactly the sorted
	// prefix the previous implementation kept.
	heap := make([]scored, 0, limit)
	for _, v := range pool {
		s := scored{v: v, score: ix.Score(v, steps)}
		if len(heap) < limit {
			heap = append(heap, s)
			siftUp(heap, len(heap)-1)
		} else if heap[0].worse(s) {
			heap[0] = s
			siftDown(heap, 0)
		}
	}
	out := make([]int, len(heap))
	for i, s := range heap {
		out[i] = s.v
	}
	slices.Sort(out)
	return out, len(pool)
}

// scored pairs a video index with its coarse proxy score for the
// Candidates selection heap.
type scored struct {
	v     int
	score float64
}

// worse reports whether a ranks strictly below b: a smaller score, or an
// equal score with a larger video index (the same tie-break the exact
// ranking uses).
func (a scored) worse(b scored) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.v > b.v
}

// siftUp restores the worst-at-root heap property after appending at i.
func siftUp(h []scored, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].worse(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the worst-at-root heap property after replacing the
// root.
func siftDown(h []scored, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].worse(h[c]) {
			c++
		}
		if !h[c].worse(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// intersectFirst decodes and intersects the posting lists of one step's
// concepts (ascending video indices throughout).
func (ix *Coarse) intersectFirst(concepts []int) []int {
	if len(concepts) == 0 {
		return nil
	}
	cur := ix.Postings(concepts[0], nil)
	for _, ci := range concepts[1:] {
		if len(cur) == 0 {
			return cur
		}
		next := ix.Postings(ci, nil)
		cur = intersectSorted(cur, next)
	}
	return cur
}

// intersectSorted intersects two ascending int slices into a fresh
// ascending slice.
func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// MemoryBytes estimates the index's resident size: the compressed
// posting bytes plus the float32 score tables and bookkeeping.
func (ix *Coarse) MemoryBytes() int {
	n := 0
	for _, p := range ix.postings {
		n += len(p)
	}
	n += len(ix.counts) * 8
	n += len(ix.sims) * 4
	n += len(ix.piSims) * 4
	n += len(ix.edges) * 4
	n += len(ix.maxPi1) * 4
	return n
}

// MaxPi1 returns the per-video maximum Π1 mass table entry (exported
// for the scale benchmark's sanity reporting).
func (ix *Coarse) MaxPi1(v int) float64 { return float64(ix.maxPi1[v]) }

// Sim returns the quantized max-sim table entry for (video, concept).
func (ix *Coarse) Sim(v, ci int) float64 {
	if v < 0 || v >= ix.videos || ci < 0 || ci >= ix.concepts {
		return math.NaN()
	}
	return float64(ix.sims[v*ix.concepts+ci])
}

// PiSim returns the quantized max Π1·sim table entry for (video,
// concept): the proxy's entry-step factor.
func (ix *Coarse) PiSim(v, ci int) float64 {
	if v < 0 || v >= ix.videos || ci < 0 || ci >= ix.concepts {
		return math.NaN()
	}
	return float64(ix.piSims[v*ix.concepts+ci])
}

// Edge returns the quantized max joint A1(s, s')·sim(s', c2) from a
// c1-annotated state s to a c2-annotated state s' of video v: the
// proxy's transition factor.
func (ix *Coarse) Edge(v, c1, c2 int) float64 {
	if v < 0 || v >= ix.videos ||
		c1 < 0 || c1 >= ix.concepts || c2 < 0 || c2 >= ix.concepts {
		return math.NaN()
	}
	return float64(ix.edges[(v*ix.concepts+c1)*ix.concepts+c2])
}
