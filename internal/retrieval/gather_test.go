package retrieval_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// mergeByMap is the reference merge: the map-keyed MergeRanked the
// in-place merge replaced. Per state sequence it keeps the first copy
// unless a later one scores strictly higher, then ranks by score
// descending with ties broken on the state sequence, and cuts to topK.
func mergeByMap(matches []retrieval.Match, topK int) []retrieval.Match {
	if topK <= 0 {
		topK = retrieval.DefaultTopK
	}
	best := make(map[string]retrieval.Match, len(matches))
	for _, m := range matches {
		k := seqKey(m.States)
		if old, ok := best[k]; !ok || m.Score > old.Score {
			best[k] = m
		}
	}
	out := make([]retrieval.Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	slices.SortFunc(out, func(x, y retrieval.Match) int {
		if x.Score != y.Score {
			if x.Score > y.Score {
				return -1
			}
			return 1
		}
		return slices.Compare(x.States, y.States)
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

func seqKey(states []int) string {
	b := make([]byte, 0, len(states)*3)
	for _, s := range states {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return string(b)
}

// gatherChild is one child ranking and the offset of its state space.
type gatherChild struct {
	res    retrieval.Result
	offset int
}

// randomChildren draws the children of one gather: up to four disjoint
// state spaces at increasing offsets, each searched by one to three
// same-offset branches (an MATN's linear patterns) that draw their
// sequences from a shared pool, so branches return the same sequence
// under different scores. Scores come from three values, forcing ties,
// and each branch draws its own Weights, so copies of one sequence
// under one score still differ and the merge's choice of copy shows.
// Lists are ranked by the reference merge like a producer's; an empty
// draw gives an empty child. One list in six ranks to more than topK, like
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
			w := rng.Float64()
			for range rng.IntN(2*topK + 2) {
				seq := slices.Clone(pool[rng.IntN(len(pool))])
				shots := make([]videomodel.ShotID, len(seq))
				weights := make([]float64, len(seq))
				for j, s := range seq {
					shots[j] = videomodel.ShotID(100 + s)
					weights[j] = w
				}
				raw = append(raw, retrieval.Match{States: seq, Shots: shots, Weights: weights, Score: []float64{0.25, 0.5, 1}[rng.IntN(3)]})
			}
			k := topK
			if rng.IntN(6) == 0 {
				k += 3
			}
			children = append(children, gatherChild{
				res: retrieval.Result{
					Matches: mergeByMap(raw, k),
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
		out[i].Weights = slices.Clone(m.Weights)
	}
	return out
}

// TestGatherEqualsMergeOfLiftedUnion pins the gather and MergeRanked
// against their definition: the reference merge over the union of every
// child's ranking, re-indexed into the parent's id space — matches
// (down to which copy of a duplicate survives), order and summed Cost —
// for K ∈ {1, 2, 3, 7}, with empty children, same-offset MATN branches
// sharing state sequences, lists longer than K, and a spent context.
// MergeRanked must leave the union as it was. Whenever exactly one
// child list is non-empty and within K, the gather must adopt that list
// without copying it.
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
		wantMatches := mergeByMap(union, topK)
		if len(wantMatches) < min(len(union), topK) {
			deduped++
		}
		before := cloneMatches(union, 0)
		if merged := retrieval.MergeRanked(union, topK); len(wantMatches) > 0 || len(merged) > 0 {
			if !reflect.DeepEqual(merged, wantMatches) {
				t.Fatalf("trial %d (K=%d): MergeRanked\n got %+v\nwant %+v", trial, topK, merged, wantMatches)
			}
		}
		if len(union) > 0 && !reflect.DeepEqual(union, before) {
			t.Fatalf("trial %d: MergeRanked changed its input", trial)
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
// and adopting one ranked list allocates nothing, and merging two
// same-offset lists that share a sequence allocates nothing in Done —
// the whole gather once, for the merge array, or not at all with a warm
// Buf. The merge never writes into a child's spare capacity.
// MergeRanked allocates exactly once, for its copy.
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

	// Two MATN branches: {0,2} appears in both, once under a lower score.
	a := []retrieval.Match{{States: []int{0, 1}, Score: 2}, {States: []int{0, 2}, Score: 1}}
	b := []retrieval.Match{{States: []int{0, 2}, Score: 3}, {States: []int{4}, Score: 0.5}}
	want := []retrieval.Match{b[0], a[0], b[1]}
	for _, c := range []struct {
		name   string
		buf    *retrieval.RankBuf
		allocs float64
	}{{"fresh storage", nil, 1}, {"a warm Buf", new(retrieval.RankBuf), 0}} {
		// Each run restores the lists Done reordered and overwrote. The
		// first list has room for the second, which the merge must leave
		// alone: a child's array may be a reused buffer's window.
		bufA, bufB := make([]retrieval.Match, len(a), len(a)+len(b)), slices.Clone(b)
		var out retrieval.Result
		allocs := testing.AllocsPerRun(100, func() {
			copy(bufA, a)
			copy(bufB, b)
			g := retrieval.Gather{Buf: c.buf}
			g.Add(&retrieval.Result{Matches: bufA}, 0)
			g.Add(&retrieval.Result{Matches: bufB}, 0)
			out = g.Done(ctx)
		})
		if !reflect.DeepEqual(out.Matches, want) {
			t.Fatalf("merge of two branches into %s: %+v, want %+v", c.name, out.Matches, want)
		}
		if allocs != c.allocs {
			t.Fatalf("merge of two branches into %s allocated %.0f times, want %.0f", c.name, allocs, c.allocs)
		}
		for _, m := range bufA[len(a):cap(bufA)] {
			if m.States != nil {
				t.Fatalf("merge into %s wrote into the first list's spare capacity", c.name)
			}
		}
	}

	union := append(slices.Clone(a), b...)
	var merged []retrieval.Match
	if allocs := testing.AllocsPerRun(100, func() { merged = retrieval.MergeRanked(union, 10) }); allocs != 1 {
		t.Fatalf("MergeRanked allocated %.0f times, want 1", allocs)
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("MergeRanked: %+v, want %+v", merged, want)
	}
}

// FuzzMergeRanked checks MergeRanked, and a gather of the same matches
// split into two non-empty same-offset lists, against the reference
// merge. Each match takes four bytes: a sequence length of 1–2, two
// states from {0, 1, 2}, and a score from three values, so duplicate
// sequences and score ties are the rule; the input is in no particular
// order, and each match carries its index as a weight, so the copy a
// merge keeps shows.
func FuzzMergeRanked(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 1, 2, 1, 0, 1, 2, 0, 1, 2, 0, 2}, uint8(2), uint8(1))
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 1, 0, 2, 2, 2}, uint8(0), uint8(3))
	f.Add([]byte{}, uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, k, split uint8) {
		var ms []retrieval.Match
		for i := 0; i+4 <= len(data); i += 4 {
			n := 1 + int(data[i]%2)
			m := retrieval.Match{Score: []float64{0.25, 0.5, 1}[data[i+3]%3]}
			for j := range n {
				m.States = append(m.States, int(data[i+1+j]%3))
				m.Weights = append(m.Weights, float64(i/4))
			}
			ms = append(ms, m)
		}
		topK := 1 + int(k%8)
		want := mergeByMap(ms, topK)
		before := cloneMatches(ms, 0)
		got := retrieval.MergeRanked(ms, topK)
		if len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("K=%d over %+v:\n got %+v\nwant %+v", topK, ms, got, want)
		}
		if len(ms) > 0 && !reflect.DeepEqual(ms, before) {
			t.Fatalf("MergeRanked changed its input:\n got %+v\nwant %+v", ms, before)
		}

		// A lone list skips the merge (its producer ranked it), so both
		// halves of the split are non-empty.
		if len(ms) < 2 {
			return
		}
		at := 1 + int(split)%(len(ms)-1)
		g := retrieval.Gather{TopK: topK}
		g.Add(&retrieval.Result{Matches: cloneMatches(ms[:at], 0)}, 0)
		g.Add(&retrieval.Result{Matches: cloneMatches(ms[at:], 0)}, 0)
		out := g.Done(context.Background()).Matches
		if len(want)+len(out) > 0 && !reflect.DeepEqual(out, want) {
			t.Fatalf("gather split at %d, K=%d over %+v:\n got %+v\nwant %+v", at, topK, ms, out, want)
		}
	})
}

// scriptedRetriever answers its i-th call with results[i] or errs[i]
// and records every query it was asked.
type scriptedRetriever struct {
	results []*retrieval.Result
	errs    []error
	asked   []retrieval.Query
}

func (r *scriptedRetriever) RetrieveInto(_ context.Context, q retrieval.Query, _ *retrieval.RankBuf) (retrieval.Result, error) {
	i := len(r.asked)
	r.asked = append(r.asked, q)
	if i < len(r.errs) && r.errs[i] != nil {
		return retrieval.Result{}, r.errs[i]
	}
	return *r.results[i], nil
}

func (r *scriptedRetriever) WithTopK(int) retrieval.Retriever { return r }

// TestGatherSearchScopesAndLifts pins what Search adds: every query
// runs on the retriever under the given scope (replacing its own), each
// ranking lands at the offset, and the costs sum.
func TestGatherSearchScopesAndLifts(t *testing.T) {
	queries := []retrieval.Query{
		retrieval.NewQuery(videomodel.EventGoal),
		retrieval.NewQuery(videomodel.EventFoul, videomodel.EventGoal),
	}
	queries[1].Scope = &retrieval.Scope{Video: 9}
	scope := &retrieval.Scope{FromMS: 1000}
	r := &scriptedRetriever{results: []*retrieval.Result{
		{Matches: []retrieval.Match{{States: []int{0}, Score: 2}}, Cost: retrieval.Cost{VideosSeen: 1}},
		{Matches: []retrieval.Match{{States: []int{1, 2}, Score: 3}}, Cost: retrieval.Cost{VideosSeen: 2}},
	}}
	var g retrieval.Gather
	if err := g.Search(context.Background(), r, queries, scope, 10); err != nil {
		t.Fatal(err)
	}
	if len(r.asked) != 2 {
		t.Fatalf("retriever asked %d queries, want 2", len(r.asked))
	}
	for i, q := range r.asked {
		want := queries[i]
		want.Scope = scope
		if !reflect.DeepEqual(q, want) {
			t.Errorf("query %d ran as %+v, want %+v", i, q, want)
		}
	}
	if queries[1].Scope.Video != 9 {
		t.Error("Search rewrote the caller's query")
	}
	out := g.Done(context.Background())
	want := []retrieval.Match{{States: []int{11, 12}, Score: 3}, {States: []int{10}, Score: 2}}
	if !reflect.DeepEqual(out.Matches, want) || out.Cost != (retrieval.Cost{VideosSeen: 3}) {
		t.Fatalf("gathered %+v cost %+v, want %+v cost {VideosSeen:3}", out.Matches, out.Cost, want)
	}
}

// TestGatherSearchStops pins the stop rule: a truncated ranking ends
// the loop (later patterns would return empty on the spent deadline),
// and an error ends it with that error.
func TestGatherSearchStops(t *testing.T) {
	queries := []retrieval.Query{
		retrieval.NewQuery(videomodel.EventGoal),
		retrieval.NewQuery(videomodel.EventFoul),
		retrieval.NewQuery(videomodel.EventCornerKick),
	}
	truncated := &scriptedRetriever{results: []*retrieval.Result{
		{Matches: []retrieval.Match{{States: []int{0}, Score: 1}}},
		{Cost: retrieval.Cost{Truncated: true}},
		{Matches: []retrieval.Match{{States: []int{5}, Score: 9}}},
	}}
	var g retrieval.Gather
	if err := g.Search(context.Background(), truncated, queries, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(truncated.asked) != 2 || !g.Truncated() {
		t.Fatalf("asked %d queries (truncated %v), want 2 and a truncated gather", len(truncated.asked), g.Truncated())
	}

	boom := errors.New("shard refused")
	failing := &scriptedRetriever{
		results: []*retrieval.Result{{}, nil, {}},
		errs:    []error{nil, boom},
	}
	g = retrieval.Gather{}
	if err := g.Search(context.Background(), failing, queries, nil, 0); !errors.Is(err, boom) {
		t.Fatalf("Search returned %v, want %v", err, boom)
	}
	if len(failing.asked) != 2 {
		t.Fatalf("asked %d queries after an error, want 2", len(failing.asked))
	}
}
