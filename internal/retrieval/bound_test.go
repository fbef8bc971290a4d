// Certificate and equivalence tests of certified pruning: the per-video
// bound dominates every score the lattice or the oracle can produce in
// that video, and a pruning retrieval returns the never-pruning
// reference's ranking bit for bit — on the engine, on shard.Group, and at
// 10× archive scale where pruning actually cuts.
package retrieval_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
)

// TestBoundCertifiesEveryScore is the certificate: over whole models of
// every domain, shard partial models and a live delta, for every query
// shape (conjunction, negation, gaps, scope windows, a video scope) and
// beam, no completed lattice sequence and no oracle sequence scores above
// its video's bound.
func TestBoundCertifiesEveryScore(t *testing.T) {
	for label, m := range layoutModels(t) {
		videoIdx := make(map[videomodel.VideoID]int, m.NumVideos())
		for vi, id := range m.VideoIDs {
			videoIdx[id] = vi
		}
		base, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for qi, q := range memoQueries(m) {
			for _, beam := range []int{1, 4, 10} {
				var tr retrieval.CollectTracer
				eng := base.WithOptions(retrieval.Options{AnnotatedOnly: true, Beam: beam, TopK: 1 << 20, Tracer: &tr}).Unpruned()
				if _, err := eng.Retrieve(q); err != nil {
					t.Fatal(err)
				}
				for _, ev := range tr.Events() {
					if ev.Kind == retrieval.TraceComplete && ev.Value > base.VideoBound(ev.Video, q) {
						t.Fatalf("%s q=%d beam=%d: video %d completes at %v above its bound %v",
							label, qi, beam, ev.Video, ev.Value, base.VideoBound(ev.Video, q))
					}
				}
			}
			for _, mt := range retrievaltest.Oracle(t, m, q, retrievaltest.OracleLimit).Matches {
				if vi := videoIdx[mt.Videos[0]]; mt.Score > base.VideoBound(vi, q) {
					t.Fatalf("%s q=%d: oracle sequence %v scores %v above video %d's bound %v",
						label, qi, mt.States, mt.Score, vi, base.VideoBound(vi, q))
				}
			}
		}
	}
}

// TestPrunedRankingBitIdentical checks that the engine and shard.Group
// (K ∈ {1, 2, 3, 7}, scattered under GOMAXPROCS 1, 2, 3 and NumCPU)
// return the never-pruning engine's ranking bit for bit across domains,
// query shapes, beams and top-K sizes, and that the suite exercises real
// cuts.
func TestPrunedRankingBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var pruned, exhaustive int
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, d := range retrievaltest.Domains() {
			for seed := uint64(1); seed <= 3; seed++ {
				m := retrievaltest.RandomModel(t, retrievaltest.Config{
					Seed: seed, Videos: 12, MaxShots: 12,
					Events: d.NumEvents(), Domain: d, LearnP12: seed%2 == 0,
				})
				base, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true})
				if err != nil {
					t.Fatal(err)
				}
				groups := make(map[int]*shard.Group)
				for _, k := range []int{1, 2, 3, 7} {
					if groups[k], err = shard.NewGroup(m, k, retrieval.Options{AnnotatedOnly: true}, shard.GroupOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				for _, beam := range []int{1, 4, 10} {
					for _, topK := range []int{1, 3} {
						opts := retrieval.Options{AnnotatedOnly: true, Beam: beam, TopK: topK}
						eng := base.WithOptions(opts)
						ref := eng.Unpruned()
						for qi, q := range memoQueries(m) {
							label := fmt.Sprintf("GOMAXPROCS=%d domain=%s seed=%d beam=%d topK=%d q=%d", procs, d.Name, seed, beam, topK, qi)
							want := mustRetrieve(t, ref, q)
							got := mustRetrieve(t, eng, q)
							retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
							pruned += got.Cost.VideosSeen
							exhaustive += want.Cost.VideosSeen
							for _, k := range []int{1, 2, 3, 7} {
								res, err := groups[k].WithOptions(opts).Retrieve(q)
								if err != nil {
									t.Fatal(err)
								}
								retrievaltest.RequireSameMatches(t, fmt.Sprintf("%s shards=%d", label, k), want.Matches, res.Matches)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("engine expanded %d videos pruned, %d exhaustive", pruned, exhaustive)
	if pruned >= exhaustive {
		t.Fatalf("pruning never cut: %d videos expanded, %d exhaustive", pruned, exhaustive)
	}
}

// TestPrunedRankingAtTenfoldScale is the differential where pruning cuts
// hardest: 10× archives (synthvideo.ScaledArchive) on seeds 1–3, queried
// with the benchmark schedule's pattern shapes over the archive's events
// ranked by frequency.
func TestPrunedRankingAtTenfoldScale(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		archive, feats, err := synthvideo.GenerateArchive(synthvideo.ScaledArchive(seed, 10))
		if err != nil {
			t.Fatal(err)
		}
		m, err := hmmm.Build(archive, feats, hmmm.BuildOptions{LearnP12: true})
		if err != nil {
			t.Fatal(err)
		}
		base, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		r := eventsByFrequency(m)
		n := func(i int) string { return r[i].String() }
		patterns := []struct {
			text string
			beam int
		}{
			{n(0), 10}, {n(3), 10}, {n(7) + " & !" + n(0), 10},
			{n(0) + " -> " + n(1), 1},
			{n(0) + " | " + n(2) + " -> " + n(1), 1},
			{n(0) + " -> " + n(1) + "?", 1},
			{n(0) + " -> " + n(1) + " -> " + n(2), 4},
			{n(1) + " -> " + n(0) + " -> " + n(3), 4},
		}
		var pruned, exhaustive int
		for _, p := range patterns {
			qs, err := matn.CompileString(p.text)
			if err != nil {
				t.Fatal(err)
			}
			eng := base.WithOptions(retrieval.Options{AnnotatedOnly: true, TopK: 10, Beam: p.beam})
			ref := eng.Unpruned()
			for qi, q := range qs {
				want := mustRetrieve(t, ref, q)
				got := mustRetrieve(t, eng, q)
				retrievaltest.RequireSameMatches(t, fmt.Sprintf("seed=%d %q branch %d", seed, p.text, qi), want.Matches, got.Matches)
				pruned += got.Cost.VideosSeen
				exhaustive += want.Cost.VideosSeen
			}
		}
		t.Logf("seed %d: %d videos expanded pruned, %d exhaustive", seed, pruned, exhaustive)
		if 2*pruned > exhaustive {
			t.Errorf("seed %d: pruning expanded %d of %d videos, want at most half", seed, pruned, exhaustive)
		}
	}
}

// eventsByFrequency ranks the model's soccer vocabulary by annotated
// state count, most frequent first (ties toward the lower event index).
func eventsByFrequency(m *hmmm.Model) []videomodel.Event {
	counts := make(map[videomodel.Event]int)
	for i := range m.States {
		for _, e := range m.States[i].Events {
			counts[e]++
		}
	}
	events := videomodel.AllEvents()
	slices.SortStableFunc(events, func(a, b videomodel.Event) int { return counts[b] - counts[a] })
	return events
}

// TestRetrainedModelEnginePrunes pins build → serve → replace for the
// bound tables: retraining returns a new model, so the served engine keeps
// answering exactly as before (Cost included), and a fresh engine over the
// retrained model prunes, ranks exactly as its never-pruning twin, and
// costs exactly what an engine over a copy of that model costs.
func TestRetrainedModelEnginePrunes(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 11, Videos: 12, MaxShots: 10, Events: 2})
	opts := retrieval.Options{AnnotatedOnly: true, TopK: 1}
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := retrieval.NewQuery(retrievaltest.PresentEvents(m)[0])
	before := mustRetrieve(t, eng, q)
	if full := mustRetrieve(t, eng.Unpruned(), q); before.Cost.VideosSeen >= full.Cost.VideosSeen {
		t.Fatalf("fixture does not prune: %d of %d videos", before.Cost.VideosSeen, full.Cost.VideosSeen)
	}

	log := feedback.NewLog()
	lo, _ := m.VideoStates(m.NumVideos() - 1)
	for i := 0; i < 3; i++ {
		if err := log.MarkPositive(m, []int{lo}); err != nil {
			t.Fatal(err)
		}
	}
	next, err := feedback.NewTrainer(1).Retrain(m, log)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "served engine after retrain", before, mustRetrieve(t, eng, q))

	fresh, err := retrieval.NewEngine(next, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRetrieve(t, fresh, q)
	full := mustRetrieve(t, fresh.Unpruned(), q)
	if got.Cost.VideosSeen >= full.Cost.VideosSeen {
		t.Fatalf("engine over the retrained model expanded %d of %d videos: it does not prune",
			got.Cost.VideosSeen, full.Cost.VideosSeen)
	}
	retrievaltest.RequireSameMatches(t, "retrained: pruned vs unpruned", full.Matches, got.Matches)
	twin, err := retrieval.NewEngine(next.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "retrained: engine over a copy", got, mustRetrieve(t, twin, q))
}
