package retrieval

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// TestTopKEqualsSortTruncate feeds random complete paths through the
// top-K heap and checks that its ranking equals sortMatches over every
// path truncated to K, in order and contents. Scores come from a small
// set and states from the fixture's eight, so score ties that differ
// only in their state sequences and shared prefixes are common. Paths
// arrive in batches with the cell slab recycled between them, as
// beginVideo recycles it between videos.
func TestTopKEqualsSortTruncate(t *testing.T) {
	m := fixtureModel(t)
	rng := xrand.New(32)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3)
		seen := map[string]bool{}
		var all []Match
		var batches [][]Match
		for b := rng.Intn(4); b >= 0; b-- {
			var batch []Match
			for i := rng.Intn(12); i > 0; i-- {
				mt := Match{Score: float64(1+rng.Intn(3)) / 4}
				for j := 0; j < n; j++ {
					s := rng.Intn(m.NumStates())
					mt.States = append(mt.States, s)
					mt.Shots = append(mt.Shots, m.States[s].Shot)
					mt.Videos = append(mt.Videos, m.VideoIDs[m.VideoOf(s)])
					mt.Weights = append(mt.Weights, rng.Float64())
				}
				// The lattice never completes one state sequence twice.
				if k := fmt.Sprint(mt.States); !seen[k] {
					seen[k] = true
					batch = append(batch, mt)
					all = append(all, mt)
				}
			}
			batches = append(batches, batch)
		}
		for _, k := range []int{1, 2, 3, 7, len(all) + 5} {
			ar := new(arena)
			ar.top.reset(k, n)
			for _, batch := range batches {
				ar.beginVideo()
				for _, mt := range batch {
					prev := int32(-1)
					for j, s := range mt.States {
						prev = ar.push(cell{state: int32(s), vi: int32(m.VideoOf(s)), prev: prev, w: mt.Weights[j], score: mt.Score})
					}
					ar.top.offer(ar, prev)
				}
			}
			want := slices.Clone(all)
			sortMatches(want)
			if len(want) > k {
				want = want[:k]
			}
			if len(want) == 0 {
				want = nil
			}
			if got := ar.top.ranking(m, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d, K=%d over %d paths:\ngot  %+v\nwant %+v", trial, n, k, len(all), got, want)
			}
		}
	}
}

// stepsQuery builds a Steps-form query, the form MATN compiles to, so an
// allocation count sees the retrieval and not the Events-form expansion.
func stepsQuery(events ...videomodel.Event) Query {
	q := Query{Steps: make([]Step, len(events))}
	for i, ev := range events {
		q.Steps[i] = Step{Events: []videomodel.Event{ev}}
	}
	return q
}

// allocEngines are the configurations the allocation tests retrieve
// under: certified pruning, similarity fallback and cross-video hops.
func allocEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	m := fixtureModel(t)
	out := map[string]*Engine{}
	for name, opts := range map[string]Options{
		"pruned":     {AnnotatedOnly: true},
		"similarity": {},
		"crossvideo": {AnnotatedOnly: true, CrossVideo: true},
	} {
		e, err := NewEngine(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	if !out["pruned"].prunes(nil) {
		t.Fatal("the pruned configuration does not prune")
	}
	return out
}

var allocQueries = []Query{
	stepsQuery(videomodel.EventGoal),
	stepsQuery(videomodel.EventFreeKick, videomodel.EventGoal),
	stepsQuery(videomodel.EventFreeKick, videomodel.EventGoal, videomodel.EventCornerKick),
}

// TestRetrieveAllocs pins what a warm retrieval allocates: its Result,
// and when anything matched, the []Match and the States, Shots, Videos
// and Weights slabs — nothing per candidate, per video or per edge.
func TestRetrieveAllocs(t *testing.T) {
	for name, base := range allocEngines(t) {
		for _, k := range []int{1, 10, 100} {
			e := base.WithOptions(Options{TopK: k, AnnotatedOnly: base.opts.AnnotatedOnly, CrossVideo: base.opts.CrossVideo})
			for _, q := range allocQueries {
				label := fmt.Sprintf("%s/K=%d/%d-step", name, k, len(q.Steps))
				res, err := e.Retrieve(q) // warm the arena and the order memo
				if err != nil {
					t.Fatal(err)
				}
				want := 1.0
				if len(res.Matches) > 0 {
					want += 5
				}
				got := testing.AllocsPerRun(20, func() {
					if _, err := e.Retrieve(q); err != nil {
						t.Fatal(err)
					}
				})
				if got != want {
					t.Errorf("%s: %.1f allocations per Retrieve, want %.0f (%d matches)", label, got, want, len(res.Matches))
				}
				// Into a warm buffer, the Result and the slabs are reused.
				var buf RankBuf
				into := func() {
					if _, err := e.RetrieveInto(context.Background(), q, &buf); err != nil {
						t.Fatal(err)
					}
				}
				into()
				if got := testing.AllocsPerRun(20, into); got != 0 {
					t.Errorf("%s: %.1f allocations per RetrieveInto a warm buffer, want 0", label, got)
				}
			}
		}
	}
}

// TestRetrieveHugeTopKSmall guards against a heap sized by K: top_k is
// client-chosen and uncapped, so a retrieval asking for 2³⁰ matches must
// allocate for the matches it finds, not for the ones it was allowed.
func TestRetrieveHugeTopKSmall(t *testing.T) {
	for name, base := range allocEngines(t) {
		opts := Options{AnnotatedOnly: base.opts.AnnotatedOnly, CrossVideo: base.opts.CrossVideo}
		opts.TopK = 1 << 30
		huge := base.WithOptions(opts)
		opts.TopK = 100
		ref := base.WithOptions(opts)
		q := allocQueries[1]
		want, err := ref.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := huge.Retrieve(q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%s: TopK 2^30 retrieval allocated %d bytes, want < 1 MB", name, b)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: TopK 2^30 ranking differs from TopK 100's over %d matches", name, len(want.Matches))
		}
	}
}

// TestRetrieveMatchSlicesCapped: every slice of a returned match has
// cap == len, so a consumer's append reallocates instead of writing into
// the next match's range of the shared slabs.
func TestRetrieveMatchSlicesCapped(t *testing.T) {
	for name, e := range allocEngines(t) {
		for _, q := range allocQueries {
			res, err := e.Retrieve(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) < 2 {
				continue
			}
			for i, mt := range res.Matches {
				if cap(mt.States) != len(mt.States) || cap(mt.Shots) != len(mt.Shots) ||
					cap(mt.Videos) != len(mt.Videos) || cap(mt.Weights) != len(mt.Weights) {
					t.Fatalf("%s/%d-step: match %d has uncapped slices", name, len(q.Steps), i)
				}
			}
			next := slices.Clone(res.Matches[1].States)
			_ = append(res.Matches[0].States, -1)
			if !slices.Equal(res.Matches[1].States, next) {
				t.Fatalf("%s/%d-step: appending to match 0 overwrote match 1", name, len(q.Steps))
			}
		}
	}
}

// TestWithTopKView checks that a WithTopK view ranks exactly as an
// engine built with that TopK, and leaves the engine it was taken from
// unchanged.
func TestWithTopKView(t *testing.T) {
	m := equivModel(t)
	opts := Options{TopK: 10, Beam: 4, CrossVideo: true, AnnotatedOnly: true}
	eng, err := NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range equivQueries(m) {
		for _, k := range []int{1, 3} {
			view := eng.WithTopK(k)
			got, err := view.RetrieveInto(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			narrow := opts
			narrow.TopK = k
			want := mustRetrieve(t, m, narrow, q)
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Errorf("q=%d WithTopK(%d): %+v, want %+v", qi, k, got.Matches, want.Matches)
			}
		}
		got, err := eng.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustRetrieve(t, m, opts, q); !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Errorf("q=%d: taking views changed the engine's ranking", qi)
		}
	}
}
