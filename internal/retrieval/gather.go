package retrieval

import (
	"cmp"
	"context"
	"slices"
	"time"
)

// Retriever is the retrieval contract every serving shape satisfies
// (the engine, an in-process shard group, the coordinator over shard
// servers), safe for concurrent use. RetrieveInto ranks q into buf: the
// returned Matches, and whatever of their slices the implementation
// carves from buf, stay valid until the next RetrieveInto with the same
// buf, which overwrites them. A nil buf means fresh storage the caller
// owns. Either way the ranking is MergeRanked's, and the caller may
// rewrite it in place. WithTopK derives a view ranking to another TopK
// (0 means DefaultTopK) over the same index and caches.
type Retriever interface {
	RetrieveInto(ctx context.Context, q Query, buf *RankBuf) (Result, error)
	WithTopK(k int) Retriever
}

// Gather combines child rankings into one (Figure 2, steps 6-9): the
// shards of a model, the main model and its live delta, an MATN's
// linear patterns, federation members. Add lifts a child's state ids by
// its offset, in place: disjoint state spaces take disjoint, increasing
// offsets, so sequences never collide and keep their tie-break order;
// children over one space (MATN branches) share an offset and the merge
// drops their duplicates. Costs sum; Done marks the result Truncated
// when ctx has ended or Deadline (zero: none) has passed. A lone
// non-empty list strictly in rank order and within TopK is adopted as
// is — what MergeRanked would make of it — and Done may sort a lone
// list out of order in place, as the Retriever contract permits. Two or
// more lists are copied into the merge's own array (Buf's, or fresh
// storage) and merged there; the children's arrays are never appended
// to. The merged order is unique: compareMatches is total over distinct
// sequences and the dedup leaves none equal. The one choice, which copy
// of a sequence survives (MATN branches can tie on score under
// different Weights), is the first added among those with the top
// score.
//
// Buffers: Search ranks its i-th child into the gather's i-th RankBuf,
// and the merge array lives in Buf. A gather that Reset reuses — one
// request at a time, as the server's pooled request value does — keeps
// both, so a warm gather ranks and merges without allocating; the
// ranking Done returns is then valid until the gather's next Search or
// Add after Reset. The zero value is ready to use: its buffers grow on
// first use, and a nil Buf merges in fresh storage. TopK 0 means
// DefaultTopK.
type Gather struct {
	TopK int
	// Deadline is the request's Options.Deadline, the children's too.
	Deadline time.Time
	// Buf, when non-nil, holds the merge's match array between uses.
	Buf     *RankBuf
	cost    Cost
	lists   int // non-empty child lists added
	matches []Match
	bufs    []RankBuf // Search's child rankings, kept by Reset
	used    int       // bufs ranked into since Reset
}

// Reset empties g for another gather to topK by deadline, keeping Buf
// and the child buffers for reuse.
func (g *Gather) Reset(topK int, deadline time.Time) {
	*g = Gather{TopK: topK, Deadline: deadline, Buf: g.Buf, bufs: g.bufs}
}

// Size returns the bytes the gather's buffers hold, Buf's included
// (RankBuf.Size).
func (g *Gather) Size() int {
	size := 0
	if g.Buf != nil {
		size = g.Buf.Size()
	}
	for i := range g.bufs {
		size += g.bufs[i].Size()
	}
	return size
}

// Trim drops the gather's buffers, Buf's storage included, when they
// hold more than maxBytes: one large ranking does not stay behind in a
// reused gather.
func (g *Gather) Trim(maxBytes int) {
	if g.Size() <= maxBytes {
		return
	}
	g.bufs = nil
	if g.Buf != nil {
		*g.Buf = RankBuf{}
	}
}

// Add adds one child's ranking, its state ids shifted by offset in place.
func (g *Gather) Add(res *Result, offset int) {
	if offset != 0 {
		for i := range res.Matches {
			for j := range res.Matches[i].States {
				res.Matches[i].States[j] += offset
			}
		}
	}
	g.cost.Add(res.Cost)
	switch {
	case len(res.Matches) == 0:
		return
	case g.lists == 0:
		g.matches = res.Matches // the child's own list: adopt it
	default:
		if g.lists == 1 {
			// The second list: the merge moves to an array of its own,
			// so no child's array is ever appended to.
			var space []Match
			if g.Buf != nil {
				space = g.Buf.matches[:0]
			}
			if n := len(g.matches) + len(res.Matches); cap(space) < n {
				space = make([]Match, 0, n)
			}
			g.matches = append(space, g.matches...)
		}
		g.matches = append(g.matches, res.Matches...)
		if g.Buf != nil {
			g.Buf.matches = g.matches
		}
	}
	g.lists++
}

// Truncated reports whether a child added so far was truncated: the
// deadline is spent, so children still to come would return empty.
func (g *Gather) Truncated() bool { return g.cost.Truncated }

// Search runs each of queries, scoped to scope, on r, ranking each into
// the gather's next child buffer, and adds its ranking at offset. It
// stops at the first error, and early once the gather is truncated:
// later patterns would each pay a poll round-trip just to return empty.
func (g *Gather) Search(ctx context.Context, r Retriever, queries []Query, scope *Scope, offset int) error {
	for _, q := range queries {
		q.Scope = scope
		if g.used == len(g.bufs) {
			g.bufs = append(g.bufs, RankBuf{})
		}
		res, err := r.RetrieveInto(ctx, q, &g.bufs[g.used])
		g.used++
		if err != nil {
			return err
		}
		g.Add(&res, offset)
		if g.Truncated() {
			break
		}
	}
	return nil
}

// Done returns the combined ranking and the summed cost.
func (g *Gather) Done(ctx context.Context) Result {
	out := Result{Matches: g.matches, Cost: g.cost}
	if g.lists > 1 || !ranked(g.matches, g.TopK) {
		out.Matches = merge(g.matches, g.TopK)
	}
	if spent(ctx, g.Deadline) {
		out.Cost.Truncated = true
	}
	return out
}

// ranked reports whether ms is strictly in rank order and within topK.
func ranked(ms []Match, topK int) bool {
	if topK <= 0 {
		topK = DefaultTopK
	}
	if len(ms) > topK {
		return false
	}
	for i := 1; i < len(ms); i++ {
		if compareMatches(ms[i-1], ms[i]) >= 0 {
			return false
		}
	}
	return true
}

// MergeRanked deduplicates matches by state sequence (keeping the first
// copy with the highest score), re-ranks, and truncates to topK: the
// merge behind Gather, run on a copy of matches.
func MergeRanked(matches []Match, topK int) []Match {
	out := make([]Match, len(matches))
	copy(out, matches)
	return merge(out, topK)
}

// merge is MergeRanked in place. The stable sort puts each sequence's
// surviving copy first among its copies; the compaction keeps it. The
// clip keeps an append to the result off the dropped tail, which a
// child's slice may still show.
func merge(ms []Match, topK int) []Match {
	if topK <= 0 {
		topK = DefaultTopK
	}
	slices.SortStableFunc(ms, func(x, y Match) int {
		return cmp.Or(slices.Compare(x.States, y.States), cmp.Compare(y.Score, x.Score))
	})
	ms = slices.CompactFunc(ms, func(x, y Match) bool { return slices.Equal(x.States, y.States) })
	sortMatches(ms)
	return slices.Clip(ms[:min(len(ms), topK)])
}
