package shard

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

// shardCounts is the fan-out grid the differential suite pins: K=1 is
// the degenerate group, 7 typically exceeds the video count of the
// small models (exercising the effective-K clamp).
var shardCounts = []int{1, 2, 3, 7}

// requireGroupEqualsEngine asserts the scatter-gather ranking is
// bit-identical to the single engine over the unsharded model, plus the
// sharded cost semantics (sum/OR aggregation can only see more videos,
// never fewer matches).
func requireGroupEqualsEngine(t *testing.T, m *hmmm.Model, opts retrieval.Options, qs []retrieval.Query) {
	t.Helper()
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range shardCounts {
		g, err := NewGroup(m, k, opts, GroupOptions{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for qi, q := range qs {
			want, err := eng.Retrieve(q)
			if err != nil {
				t.Fatalf("k=%d q=%d: engine: %v", k, qi, err)
			}
			got, err := g.Retrieve(q)
			if err != nil {
				t.Fatalf("k=%d q=%d: group: %v", k, qi, err)
			}
			label := fmt.Sprintf("k=%d q=%d", k, qi)
			retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
			if got.Cost.Truncated {
				t.Errorf("%s: spurious truncation", label)
			}
		}
	}
}

// requireGroupMatchesOracle asserts the group agrees with the
// exhaustive brute-force enumerator: full bit-identity on single-step
// queries (Beam >= TopK makes the engine exhaustive there), and
// oracle-consistency — identical scores, weights, and relative order on
// the materialized sequences — on multi-step queries.
func requireGroupMatchesOracle(t *testing.T, m *hmmm.Model, qs []retrieval.Query) {
	t.Helper()
	topK := 10
	opts := retrieval.Options{AnnotatedOnly: true, TopK: topK, Beam: topK}
	for _, k := range shardCounts {
		g, err := NewGroup(m, k, opts, GroupOptions{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for qi, q := range qs {
			got, err := g.Retrieve(q)
			if err != nil {
				t.Fatalf("k=%d q=%d: group: %v", k, qi, err)
			}
			label := fmt.Sprintf("oracle k=%d q=%d", k, qi)
			if retrievaltest.SingleStep(q) {
				want := retrievaltest.Oracle(t, m, q, topK)
				retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
			} else {
				full := retrievaltest.Oracle(t, m, q, retrievaltest.OracleLimit)
				retrievaltest.RequireOracleConsistent(t, label, full, got.Matches)
			}
		}
	}
}

// TestDifferentialSeededRandom is the property test: seeded-random
// models of varying shape, each checked for bit-identity between the
// group (K in shardCounts) and the single engine — in annotated and
// similarity modes — and against the brute-force oracle.
func TestDifferentialSeededRandom(t *testing.T) {
	configs := []retrievaltest.Config{
		{Seed: 1, Videos: 1, MaxShots: 8, Events: 2},
		{Seed: 2, Videos: 3, MaxShots: 6, Events: 2},
		{Seed: 3, Videos: 5, MaxShots: 12, Events: 3, LearnP12: true},
		{Seed: 4, Videos: 8, MaxShots: 10, Events: 4, Annotate: 0.4},
		{Seed: 5, Videos: 9, MaxShots: 4, Events: 5, Annotate: 0.25},
		{Seed: 6, Videos: 12, MaxShots: 14, Events: 6, LearnP12: true},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("seed=%d/videos=%d", cfg.Seed, cfg.Videos), func(t *testing.T) {
			m := retrievaltest.RandomModel(t, cfg)
			qs := retrievaltest.Queries(m)
			if len(qs) == 0 {
				t.Fatal("no queries generated")
			}
			requireGroupEqualsEngine(t, m, retrieval.Options{AnnotatedOnly: true}, qs)
			requireGroupEqualsEngine(t, m, retrieval.Options{AnnotatedOnly: true, Beam: 10, TopK: 7}, qs)
			// Similarity mode (unannotated states compete by features):
			// still per-video work, so sharding stays exact.
			requireGroupEqualsEngine(t, m, retrieval.Options{AnnotatedOnly: false}, qs)
			requireGroupMatchesOracle(t, m, qs)
		})
	}
}

// TestDifferentialPaperScale runs the same differential on the paper's
// 54-video / 11,567-shot / 506-annotation corpus.
func TestDifferentialPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus build in -short mode")
	}
	corpus, err := dataset.Build(dataset.PaperScale(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(corpus.Archive, corpus.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := retrievaltest.Queries(m)
	requireGroupEqualsEngine(t, m, retrieval.Options{AnnotatedOnly: true}, qs)
	requireGroupMatchesOracle(t, m, qs)
}

// TestEarlyStopSingleShardEqualsEngine pins the StopAfterMatches
// pushdown semantics at K=1: one shard's budget is exactly the single
// engine's budget, so even the early-stopped rankings are identical.
func TestEarlyStopSingleShardEqualsEngine(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 21, Videos: 8, MaxShots: 12})
	opts := retrieval.Options{AnnotatedOnly: true, TopK: 2, StopAfterMatches: true}
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(m, 1, opts, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range retrievaltest.Queries(m) {
		want, err := eng.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		retrievaltest.RequireSameMatches(t, fmt.Sprintf("earlystop q=%d", qi), want.Matches, got.Matches)
	}
}

// TestEarlyStopShardedReturnsValidRanking: with K>1 the per-shard
// budgets widen the searched set; the result must still be a correctly
// scored ranking (every match oracle-consistent), just not necessarily
// the single engine's early-stopped set.
func TestEarlyStopShardedReturnsValidRanking(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 22, Videos: 9, MaxShots: 12})
	opts := retrieval.Options{AnnotatedOnly: true, TopK: 2, StopAfterMatches: true}
	g, err := NewGroup(m, 3, opts, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range retrievaltest.Queries(m) {
		got, err := g.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) > 2 {
			t.Fatalf("q=%d: %d matches, TopK=2", qi, len(got.Matches))
		}
		full := retrievaltest.Oracle(t, m, q, retrievaltest.OracleLimit)
		retrievaltest.RequireOracleConsistent(t, fmt.Sprintf("earlystop k=3 q=%d", qi), full, got.Matches)
	}
}

// TestGroupCoarsePrefilter pins the sharded two-stage semantics: with a
// CoarseCandidates limit covering every shard's videos the per-shard
// prefilter is the identity and the merged ranking is bit-identical to
// the exact single engine; with a pruning limit every returned match
// must still be oracle-consistent (the coarse stage only drops
// candidates, never rescores them).
func TestGroupCoarsePrefilter(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: 29, Videos: 18, MaxShots: 10, Events: 4, LearnP12: true,
	})
	qs := retrievaltest.Queries(m)
	covering := retrieval.Options{AnnotatedOnly: true, TopK: 8, Beam: 8,
		CoarseCandidates: m.NumVideos()}
	requireGroupEqualsEngine(t, m, covering, qs)

	pruning := covering
	pruning.CoarseCandidates = 3
	for _, k := range shardCounts {
		g, err := NewGroup(m, k, pruning, GroupOptions{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for qi, q := range qs {
			got, err := g.Retrieve(q)
			if err != nil {
				t.Fatalf("k=%d q=%d: %v", k, qi, err)
			}
			full := retrievaltest.Oracle(t, m, q, retrievaltest.OracleLimit)
			label := fmt.Sprintf("coarse k=%d q=%d", k, qi)
			retrievaltest.RequireOracleConsistent(t, label, full, got.Matches)
		}
	}
}

func TestGroupScatterWorkerCountInvariant(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 23, Videos: 6})
	opts := retrieval.Options{AnnotatedOnly: true}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var base *retrieval.Result
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		g, err := NewGroup(m, 3, opts, GroupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Retrieve(retrievaltest.Queries(m)[0])
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		retrievaltest.RequireSameMatches(t, fmt.Sprintf("GOMAXPROCS=%d", procs), base.Matches, res.Matches)
		if res.Cost != base.Cost {
			t.Errorf("GOMAXPROCS=%d: cost %+v, want %+v", procs, res.Cost, base.Cost)
		}
	}
}

func TestGroupContextCancelTruncates(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 24, Videos: 6})
	g, err := NewGroup(m, 2, retrieval.Options{AnnotatedOnly: true}, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := g.RetrieveContext(ctx, retrievaltest.Queries(m)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Truncated {
		t.Error("cancelled context did not mark the result truncated")
	}
}

func TestGroupInvalidQuery(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 26})
	g, err := NewGroup(m, 2, retrieval.Options{}, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Retrieve(retrieval.Query{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestGroupWithOptions(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 27, Videos: 6})
	base, err := NewGroup(m, 3, retrieval.Options{AnnotatedOnly: true, TopK: 10}, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	narrow := base.WithOptions(retrieval.Options{AnnotatedOnly: true, TopK: 1})
	if len(narrow.shards) != len(base.shards) {
		t.Fatal("WithOptions changed the shard count")
	}
	q := retrievaltest.Queries(m)[0]
	wide, err := base.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	top1, err := narrow.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1.Matches) > 1 {
		t.Fatalf("TopK=1 returned %d matches", len(top1.Matches))
	}
	if len(wide.Matches) > 0 && len(top1.Matches) > 0 {
		retrievaltest.RequireSameMatches(t, "top1", wide.Matches[:1], top1.Matches)
	}
}

func TestGroupTraceSpans(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 42, Videos: 5})
	tr := obs.NewTrace()
	g, err := NewGroup(m, 2, retrieval.Options{AnnotatedOnly: true, Trace: tr}, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Retrieve(retrievaltest.Queries(m)[0]); err != nil {
		t.Fatal(err)
	}
	totals := tr.Totals()
	for _, stage := range []string{"scatter", "merge"} {
		if _, ok := totals[stage]; !ok {
			t.Errorf("trace missing %q span (have %v)", stage, totals)
		}
	}
}

// TestGroupWithTopK checks that a group's WithTopK view, the one a
// federation member searches with, ranks bit-identically to a single
// engine built with that TopK at every fan-out.
func TestGroupWithTopK(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 6, Videos: 12, MaxShots: 14, Events: 6, LearnP12: true})
	qs := retrievaltest.Queries(m)
	opts := retrieval.Options{AnnotatedOnly: true, Beam: 10, TopK: 10}
	for _, k := range []int{1, 3} {
		narrow := opts
		narrow.TopK = k
		eng, err := retrieval.NewEngine(m, narrow)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			g, err := NewGroup(m, shards, opts, GroupOptions{})
			if err != nil {
				t.Fatal(err)
			}
			view := g.WithTopK(k)
			for qi, q := range qs {
				want, err := eng.Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := view.RetrieveContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Matches) > k {
					t.Errorf("shards=%d q=%d: %d matches over TopK %d", shards, qi, len(got.Matches), k)
				}
				retrievaltest.RequireSameMatches(t, fmt.Sprintf("shards=%d k=%d q=%d", shards, k, qi), want.Matches, got.Matches)
			}
		}
	}
}
