package retrieval_test

import (
	"context"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// gatherChild is one child ranking and the offset of its state space.
type gatherChild struct {
	res    retrieval.Result
	offset int
}

// randomChildren draws the children of one gather: up to four disjoint
// state spaces at increasing offsets, each searched by one to three
// same-offset branches (an MATN's linear patterns) that draw their
// sequences from a shared pool, so branches return the same sequence
// under different scores. Scores come from three values, forcing ties.
// Lists are ranked by MergeRanked like a producer's; an empty draw
// gives an empty child. One list in six ranks to more than topK, like
// a retriever with a larger TopK of its own.
func randomChildren(rng *rand.Rand, topK int) []gatherChild {
	var children []gatherChild
	offset := 0
	for range 1 + rng.IntN(4) {
		size := 1 + rng.IntN(6)
		var pool [][]int
		for range 1 + rng.IntN(8) {
			seq := make([]int, 1+rng.IntN(3))
			for j := range seq {
				seq[j] = rng.IntN(size)
			}
			pool = append(pool, seq)
		}
		for range 1 + rng.IntN(3) {
			var raw []retrieval.Match
			for range rng.IntN(2*topK + 2) {
				seq := slices.Clone(pool[rng.IntN(len(pool))])
				shots := make([]videomodel.ShotID, len(seq))
				for j, s := range seq {
					shots[j] = videomodel.ShotID(100 + s)
				}
				raw = append(raw, retrieval.Match{States: seq, Shots: shots, Score: []float64{0.25, 0.5, 1}[rng.IntN(3)]})
			}
			k := topK
			if rng.IntN(6) == 0 {
				k += 3
			}
			children = append(children, gatherChild{
				res: retrieval.Result{
					Matches: retrieval.MergeRanked(raw, k),
					Cost: retrieval.Cost{
						SimEvals: rng.IntN(50), EdgeEvals: rng.IntN(50), VideosSeen: rng.IntN(5),
						Truncated: rng.IntN(8) == 0, DegradedShards: rng.IntN(2),
					},
				},
				offset: offset,
			})
		}
		offset += size
	}
	return children
}

// cloneMatches deep-copies a ranking, shifting its states by offset.
func cloneMatches(ms []retrieval.Match, offset int) []retrieval.Match {
	out := make([]retrieval.Match, len(ms))
	for i, m := range ms {
		out[i] = m
		out[i].States = make([]int, len(m.States))
		for j, s := range m.States {
			out[i].States[j] = s + offset
		}
		out[i].Shots = slices.Clone(m.Shots)
	}
	return out
}

// TestGatherEqualsMergeOfLiftedUnion pins the gather against its
// definition: MergeRanked over the union of every child's ranking,
// re-indexed into the parent's id space — matches, order and summed
// Cost — for K ∈ {1, 2, 3, 7}, with empty children, same-offset MATN
// branches sharing state sequences, lists longer than K, and a spent
// context. Whenever exactly one child list is non-empty and within K,
// the gather must adopt that list without copying it.
func TestGatherEqualsMergeOfLiftedUnion(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	spent, cancel := context.WithCancel(context.Background())
	cancel()
	skipped, deduped := 0, 0
	for trial := range 4000 {
		topK := []int{1, 2, 3, 7}[trial%4]
		ctx := context.Background()
		if trial%5 == 0 {
			ctx = spent
		}
		children := randomChildren(rng, topK)

		var union []retrieval.Match
		var want retrieval.Cost
		nonEmpty, longest := 0, 0
		for _, c := range children {
			union = append(union, cloneMatches(c.res.Matches, c.offset)...)
			want.SimEvals += c.res.Cost.SimEvals
			want.EdgeEvals += c.res.Cost.EdgeEvals
			want.VideosSeen += c.res.Cost.VideosSeen
			want.DegradedShards += c.res.Cost.DegradedShards
			want.Truncated = want.Truncated || c.res.Cost.Truncated
			if len(c.res.Matches) > 0 {
				nonEmpty++
				longest = len(c.res.Matches)
			}
		}
		want.Truncated = want.Truncated || ctx.Err() != nil
		wantMatches := retrieval.MergeRanked(union, topK)
		if len(wantMatches) < min(len(union), topK) {
			deduped++
		}

		g := retrieval.Gather{TopK: topK}
		var only *retrieval.Match
		for i := range children {
			c := &children[i]
			c.res.Matches = cloneMatches(c.res.Matches, 0) // Add lifts in place
			if len(c.res.Matches) > 0 {
				only = &c.res.Matches[0]
			}
			g.Add(&c.res, c.offset)
		}
		got := g.Done(ctx)
		if len(wantMatches) > 0 || len(got.Matches) > 0 {
			if !reflect.DeepEqual(got.Matches, wantMatches) {
				t.Fatalf("trial %d (K=%d, %d children): gather\n got %+v\nwant %+v", trial, topK, len(children), got.Matches, wantMatches)
			}
		}
		if got.Cost != want {
			t.Fatalf("trial %d: cost %+v, want %+v", trial, got.Cost, want)
		}
		if nonEmpty == 1 && longest <= topK {
			skipped++
			if &got.Matches[0] != only {
				t.Fatalf("trial %d: a single ranked list within K was copied, not adopted", trial)
			}
		}
	}
	if skipped < 200 || deduped < 200 {
		t.Fatalf("corpus too thin: %d merge skips, %d merges that dropped a duplicate", skipped, deduped)
	}
}

// TestGatherRanksASingleListOutOfOrder pins the guard on the merge
// skip: a lone list that is not strictly in rank order (two scores a
// caller rescaled into a tie, states out of tie-break order) or that is
// longer than TopK goes through MergeRanked.
func TestGatherRanksASingleListOutOfOrder(t *testing.T) {
	tied := []retrieval.Match{{States: []int{5}, Score: 1}, {States: []int{3}, Score: 1}}
	g := retrieval.Gather{TopK: 10}
	g.Add(&retrieval.Result{Matches: slices.Clone(tied)}, 0)
	if got := g.Done(context.Background()).Matches; !reflect.DeepEqual(got, retrieval.MergeRanked(tied, 10)) || got[0].States[0] != 3 {
		t.Fatalf("tied list not re-ranked: %+v", got)
	}
	long := []retrieval.Match{{States: []int{1}, Score: 3}, {States: []int{2}, Score: 2}, {States: []int{3}, Score: 1}}
	g = retrieval.Gather{TopK: 2}
	g.Add(&retrieval.Result{Matches: long}, 0)
	if got := g.Done(context.Background()).Matches; len(got) != 2 {
		t.Fatalf("list longer than TopK kept %d matches", len(got))
	}
}

// TestGatherAdoptsWithoutAllocating pins the in-place contract: lifting
// and adopting one ranked list allocates nothing.
func TestGatherAdoptsWithoutAllocating(t *testing.T) {
	res := &retrieval.Result{Matches: []retrieval.Match{
		{States: []int{0, 1}, Score: 2}, {States: []int{0, 2}, Score: 1},
	}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		g := retrieval.Gather{}
		g.Add(res, 7)
		g.Add(&retrieval.Result{}, 0)
		if out := g.Done(ctx); len(out.Matches) != 2 {
			t.Fatal("lost a match")
		}
	})
	if allocs != 0 {
		t.Fatalf("gather of one list allocated %.0f times, want 0", allocs)
	}
}
