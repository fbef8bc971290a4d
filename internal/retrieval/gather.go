package retrieval

import (
	"cmp"
	"context"
	"slices"
	"time"
)

// Retriever is the retrieval contract every serving shape satisfies
// (the engine, an in-process shard group, the coordinator over shard
// servers), safe for concurrent use. Each call
// returns a fresh Result the caller owns, down to each Match's slices,
// ranked as MergeRanked ranks; the caller may rewrite it in place.
// WithTopK derives a view ranking to another TopK (0 means DefaultTopK)
// over the same index and caches.
type Retriever interface {
	RetrieveContext(ctx context.Context, q Query) (*Result, error)
	WithTopK(k int) Retriever
}

// Gather combines child rankings into one (Figure 2, steps 6-9): the
// shards of a model, the main model and its live delta, an MATN's
// linear patterns, federation members. Add lifts a child's state ids by
// its offset, in place: disjoint state spaces take disjoint, increasing
// offsets, so sequences never collide and keep their tie-break order;
// children over one space (MATN branches) share an offset and the merge
// drops their duplicates. Costs sum; Done marks the result Truncated
// when ctx has ended or Deadline (zero: none) has passed. A lone non-empty list strictly in rank order and
// within TopK is adopted as is — what MergeRanked would make of it;
// anything else (a list rescaled into a tie, too) is merged in place:
// Done may reorder and overwrite the children's Matches slices, as the
// Retriever contract permits. The merged order is unique: compareMatches
// is total over distinct sequences and the dedup leaves none equal. The
// one choice, which copy of a sequence survives (MATN branches can tie
// on score under different Weights), is the first added among those
// with the top score. The zero value is ready to use; TopK 0 means
// DefaultTopK.
type Gather struct {
	TopK int
	// Deadline is the request's Options.Deadline, the children's too.
	Deadline time.Time
	cost     Cost
	lists    int // non-empty child lists added
	matches  []Match
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
		g.matches = append(g.matches, res.Matches...)
	}
	g.lists++
}

// Truncated reports whether a child added so far was truncated: the
// deadline is spent, so children still to come would return empty.
func (g *Gather) Truncated() bool { return g.cost.Truncated }

// Search runs each of queries, scoped to scope, on r and adds its
// ranking at offset. It stops at the first error, and early once the
// gather is truncated: later patterns would each pay a poll round-trip
// just to return empty.
func (g *Gather) Search(ctx context.Context, r Retriever, queries []Query, scope *Scope, offset int) error {
	for _, q := range queries {
		q.Scope = scope
		res, err := r.RetrieveContext(ctx, q)
		if err != nil {
			return err
		}
		g.Add(res, offset)
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
