package retrieval

import (
	"math"
	"slices"
	"unsafe"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// pathCell is one step of a held path, copied out of the cell slab
// (beginVideo recycles the slab, so a held path cannot reference it).
type pathCell struct {
	state int32 // global state index
	vi    int32 // video index of the state
	w     float64
}

// topEntry is one held path: its Eq. 15 score and the slot holding its
// cells.
type topEntry struct {
	score float64
	slot  int32
}

// topK is the one structure that tracks a retrieval's K best complete
// paths: a bounded heap ordered exactly as sortMatches orders matches
// (score descending, then states ascending), with the worst held path at
// the root. Once it holds K paths the root is both the admission test —
// a path enters only by ranking strictly before it — and the K-th best
// score the certified cut compares bounds against. Because the order is
// total over distinct state sequences, the survivors sorted once equal
// sortMatches over every offered path truncated to K. Slot storage lives
// in the pooled arena and grows with the paths actually held, never with
// K, which the client chooses.
type topK struct {
	k, n int        // capacity K and cells per path (the query's steps)
	heap []topEntry // the held paths; heap[0] ranks last among them
	// slots holds len(heap)+1 paths of n cells: slot i is
	// slots[i*n:(i+1)*n]. The one slot no entry owns is spare, where
	// offer copies a candidate before deciding whether to keep it.
	slots []pathCell
	spare int32
}

// reset empties the heap for a retrieval of n-step paths keeping k.
func (t *topK) reset(k, n int) {
	t.k, t.n = k, n
	t.heap = t.heap[:0]
	t.slots = slices.Grow(t.slots[:0], n)[:n]
	t.spare = 0
}

// path returns slot i's cells.
func (t *topK) path(i int32) []pathCell {
	lo := int(i) * t.n
	return t.slots[lo : lo+t.n]
}

// before reports whether a ranks strictly before b in sortMatches order.
func (t *topK) before(a, b topEntry) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	pb := t.path(b.slot)
	for i, c := range t.path(a.slot) {
		if c.state != pb[i].state {
			return c.state < pb[i].state
		}
	}
	return false
}

// kth returns the K-th best held score, or false while fewer than K
// paths are held.
func (t *topK) kth() (float64, bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].score, true
}

// offer considers the complete path ending at arena cell ci and keeps it
// when it ranks among the k best offered so far.
func (t *topK) offer(ar *arena, ci int32) {
	score := ar.cells[ci].score
	full := len(t.heap) == t.k
	if full && score < t.heap[0].score {
		return
	}
	p := t.path(t.spare)
	for x, i := ci, t.n-1; x != -1; x, i = ar.cells[x].prev, i-1 {
		c := &ar.cells[x]
		p[i] = pathCell{state: c.state, vi: c.vi, w: c.w}
	}
	e := topEntry{score: score, slot: t.spare}
	if !full {
		t.heap = append(t.heap, e)
		t.spare = int32(len(t.heap))
		t.slots = slices.Grow(t.slots, t.n)[:len(t.slots)+t.n]
		t.up(len(t.heap) - 1)
		return
	}
	if !t.before(e, t.heap[0]) {
		return
	}
	t.spare, t.heap[0] = t.heap[0].slot, e
	t.down(0)
}

// up restores the heap property above i.
func (t *topK) up(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// down restores the heap property below i.
func (t *topK) down(i int) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.before(h[c], h[c+1]) {
			c++
		}
		if !t.before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ranking sorts the held paths once and materializes them: one []Match
// and one slab each for States, Shots, Videos and Weights, every match
// holding capacity-capped sub-slices so an append by a consumer never
// writes into the next match's range. The slabs come from buf, or are
// fresh when buf is nil. It returns nil when nothing is held, and leaves
// the heap unordered.
func (t *topK) ranking(m *hmmm.Model, buf *RankBuf) []Match {
	h := t.heap
	if len(h) == 0 {
		return nil
	}
	slices.SortFunc(h, func(a, b topEntry) int {
		switch {
		case t.before(a, b):
			return -1
		case t.before(b, a):
			return 1
		}
		return 0
	})
	n, total := t.n, len(h)*t.n
	out, states, shots, videos, weights := buf.Carve(len(h), total, total, total, total)
	for i, e := range h {
		lo, hi := i*n, (i+1)*n
		out[i] = Match{
			States:  states[lo:hi:hi],
			Shots:   shots[lo:hi:hi],
			Videos:  videos[lo:hi:hi],
			Weights: weights[lo:hi:hi],
			Score:   e.score,
		}
		for j, c := range t.path(e.slot) {
			states[lo+j] = int(c.state)
			shots[lo+j] = m.States[c.state].Shot
			videos[lo+j] = m.VideoIDs[c.vi]
			weights[lo+j] = c.w
		}
	}
	return out
}

// RankBuf is storage a retrieval materializes its ranking into
// (Retriever.RetrieveInto): the match array and the four slabs the
// matches' slices are carved from. A caller that serves one retrieval at
// a time — a shard server's connection, a Gather that Reset reuses —
// keeps one and reuses it, so a warm ranking allocates nothing; each use
// overwrites the ranking the previous one returned. A Gather's Buf keeps
// only the match array, for its merge. A retriever that merges children
// (the coordinator over its shards) ranks child i into Children's i-th
// buffer and merges into the parent's match array, so one kept RankBuf
// holds the whole tree. The zero value is ready to use.
type RankBuf struct {
	matches  []Match
	states   []int
	shots    []videomodel.ShotID
	videos   []videomodel.VideoID
	weights  []float64
	children []RankBuf
}

// Carve returns b's match array and its four slabs resliced to the given
// lengths, reallocating only a slab whose capacity is short: storage for
// one ranking, whose contents are stale and must be overwritten (a race
// build poisons them first, so a reader of the previous ranking sees
// NaN scores and -1 states). A nil b returns fresh storage.
func (b *RankBuf) Carve(n, nStates, nShots, nVideos, nWeights int) ([]Match, []int, []videomodel.ShotID, []videomodel.VideoID, []float64) {
	if b == nil {
		return make([]Match, n), make([]int, nStates), make([]videomodel.ShotID, nShots),
			make([]videomodel.VideoID, nVideos), make([]float64, nWeights)
	}
	if raceEnabled {
		b.poison()
	}
	return grown(&b.matches, n), grown(&b.states, nStates), grown(&b.shots, nShots),
		grown(&b.videos, nVideos), grown(&b.weights, nWeights)
}

// poison overwrites every match and slab b holds with values no ranking
// carries, so a read through a ranking b has since been handed out again
// for sees NaN scores and weights and -1 states, shots and videos. It
// writes b's own arrays only: a merge array's matches may window other
// buffers, so their headers are replaced, not written through.
func (b *RankBuf) poison() {
	fill(b.matches[:cap(b.matches)], Match{Score: math.NaN(), States: poisonStates})
	fill(b.states[:cap(b.states)], -1)
	fill(b.shots[:cap(b.shots)], -1)
	fill(b.videos[:cap(b.videos)], -1)
	fill(b.weights[:cap(b.weights)], math.NaN())
}

// poisonStates is the state sequence of a poisoned match.
var poisonStates = []int{-1}

// Children returns b's first n child buffers, growing b to hold them and
// keeping the ones it already has; nil when b is nil (the children rank
// in fresh storage). The slice stays valid while b is not grown again,
// so a caller takes it once, before its children rank concurrently.
func (b *RankBuf) Children(n int) []RankBuf {
	if b == nil {
		return nil
	}
	if len(b.children) < n {
		b.children = append(b.children, make([]RankBuf, n-len(b.children))...)
	}
	return b.children[:n]
}

// Size returns the bytes b's storage holds, its children's included, for
// a caller that drops a buffer one large ranking grew.
func (b *RankBuf) Size() int {
	size := cap(b.matches)*int(unsafe.Sizeof(Match{})) +
		cap(b.states)*int(unsafe.Sizeof(int(0))) +
		cap(b.shots)*int(unsafe.Sizeof(videomodel.ShotID(0))) +
		cap(b.videos)*int(unsafe.Sizeof(videomodel.VideoID(0))) +
		cap(b.weights)*int(unsafe.Sizeof(float64(0))) +
		cap(b.children)*int(unsafe.Sizeof(RankBuf{}))
	for i := range b.children {
		size += b.children[i].Size()
	}
	return size
}

// grown returns *s resliced to n elements, reallocating it only when its
// capacity is short; the contents are stale and must be overwritten.
func grown[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
