// Differential tests of the coarse→fine two-stage pipeline against the
// exact engine: bit-identity whenever the prefilter cannot prune
// (CoarseCandidates = 0, or a limit covering the whole pool), and the
// recall@K quality gate when it does. External test package for the
// same reason as differential_test.go.
package retrieval_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

// coarseCorpus builds the seeded corpora the coarse differential and
// recall tests share: big enough (40 videos) that a per-step budget of
// 8 prunes the archive for every query shape — 80% of videos dropped
// for single-step probes, 40% even for the widest (3-step) pattern.
func coarseCorpus(t *testing.T, seed uint64) *hmmm.Model {
	t.Helper()
	return retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: seed, Videos: 40, MaxShots: 10, Events: 4, FeatureDim: 6, LearnP12: true,
	})
}

// TestCoarseUnlimitedBitIdentical pins the exactness contract: with a
// candidate limit covering every video the prefilter is the identity,
// so the two-stage engine must return bit-identical rankings to the
// exact engine — in annotated-only and similarity-fallback mode, over
// every corpus query shape (including the scoped query, which bypasses
// the prefilter).
func TestCoarseUnlimitedBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m := coarseCorpus(t, seed)
		for _, annotated := range []bool{true, false} {
			base := retrieval.Options{TopK: 8, Beam: 4, AnnotatedOnly: annotated}
			exact, err := retrieval.NewEngine(m, base)
			if err != nil {
				t.Fatal(err)
			}
			withCoarse := base
			withCoarse.CoarseCandidates = m.NumVideos()
			coarse, err := retrieval.NewEngine(m, withCoarse)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range retrievaltest.Queries(m) {
				want, err := exact.Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coarse.Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d annotated=%v q=%d", seed, annotated, qi)
				retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
			}
		}
	}
}

// TestCoarseZeroIsExact pins the escape hatch: CoarseCandidates = 0
// must leave the engine on the exact-only path, bit for bit.
func TestCoarseZeroIsExact(t *testing.T) {
	m := coarseCorpus(t, 5)
	base := retrieval.Options{TopK: 8, Beam: 4, AnnotatedOnly: true}
	exact, err := retrieval.NewEngine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.CoarseCandidates = 0
	viaZero, err := retrieval.NewEngine(m, zero)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range retrievaltest.Queries(m) {
		want, err := exact.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := viaZero.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		retrievaltest.RequireSameMatches(t, fmt.Sprintf("q=%d", qi), want.Matches, got.Matches)
		if want.Cost != got.Cost {
			t.Fatalf("q=%d: cost %+v, want %+v", qi, got.Cost, want.Cost)
		}
	}
}

// TestCoarseFineRecall is the quality gate the CI bench-scale smoke
// target runs: with the prefilter pruning every query shape (a
// per-step budget of 8 keeps 8–24 of 40 videos), corpus-level
// recall@10 against the exact engine must stay >= 0.95.
func TestCoarseFineRecall(t *testing.T) {
	const limit = 8
	var rs retrievaltest.RecallStats
	for seed := uint64(1); seed <= 6; seed++ {
		m := coarseCorpus(t, seed)
		base := retrieval.Options{TopK: 10, Beam: 4, AnnotatedOnly: true}
		exact, err := retrieval.NewEngine(m, base)
		if err != nil {
			t.Fatal(err)
		}
		pruned := base
		pruned.CoarseCandidates = limit
		coarse, err := retrieval.NewEngine(m, pruned)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range retrievaltest.Queries(m) {
			want, err := exact.Retrieve(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coarse.Retrieve(q)
			if err != nil {
				t.Fatal(err)
			}
			rs.Observe(want.Matches, got.Matches, 10)
		}
	}
	t.Logf("coarse→fine recall@10 over %d queries: %.3f (min per-query %.3f, %d/%d sequences)",
		rs.Queries, rs.Recall(), rs.Min, rs.Hits, rs.Wanted)
	if rs.Recall() < 0.95 {
		t.Fatalf("corpus recall@10 = %.3f, want >= 0.95 (%d/%d sequences)",
			rs.Recall(), rs.Hits, rs.Wanted)
	}
}

// TestCoarsePrunesWork verifies the prefilter actually prunes: with a
// limit well below the Step-2 candidate pool the two-stage engine must
// expand at most limit videos. The pool is counted directly, not as the
// exact engine's expansion, which certified pruning shrinks too.
func TestCoarsePrunesWork(t *testing.T) {
	m := coarseCorpus(t, 7)
	const limit = 8
	base := retrieval.Options{TopK: 10, Beam: 4, AnnotatedOnly: true}
	exact, err := retrieval.NewEngine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	pruned := base
	pruned.CoarseCandidates = limit
	coarse, err := retrieval.NewEngine(m, pruned)
	if err != nil {
		t.Fatal(err)
	}
	q := retrievaltest.Queries(m)[0]
	got, err := coarse.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost.VideosSeen > limit {
		t.Fatalf("coarse expanded %d videos, want <= %d", got.Cost.VideosSeen, limit)
	}
	if n := exact.Step2Candidates(q); n <= limit {
		t.Fatalf("fixture too small: only %d Step-2 candidates", n)
	}
}

// TestCoarseWithOptionsTogglesPrefilter covers the split of
// CoarseCandidates into a build-time half (NewEngine builds the coarse
// index when it is positive) and a per-request budget: views of a coarse
// engine that change only the budget, or set it to 0, share its caches
// and rank like the exact engine whenever the budget cannot prune, and a
// coarse budget on an engine built without the index is ErrNoCoarseIndex,
// never a silent exact search.
func TestCoarseWithOptionsTogglesPrefilter(t *testing.T) {
	m := coarseCorpus(t, 8)
	base := retrieval.Options{TopK: 8, Beam: 4, AnnotatedOnly: true}
	exact, err := retrieval.NewEngine(m, base)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	on.CoarseCandidates = m.NumVideos()
	coarse, err := retrieval.NewEngine(m, on)
	if err != nil {
		t.Fatal(err)
	}
	wider := on
	wider.CoarseCandidates = 2 * m.NumVideos()
	narrower := on
	narrower.CoarseCandidates = 6
	engines := map[string]*retrieval.Engine{
		"built-on":    coarse,
		"budget-only": coarse.WithOptions(wider),
		"budget-0":    coarse.WithOptions(base),
	}
	for label, e := range engines {
		if !e.SameCaches(coarse) {
			t.Errorf("%s view built its own caches", label)
		}
	}
	narrow := coarse.WithOptions(narrower)
	missing := exact.WithOptions(on)
	for qi, q := range retrievaltest.Queries(m) {
		want, err := exact.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		for label, e := range engines {
			got, err := e.Retrieve(q)
			if err != nil {
				t.Fatalf("%s q=%d: %v", label, qi, err)
			}
			retrievaltest.RequireSameMatches(t, fmt.Sprintf("%s q=%d", label, qi), want.Matches, got.Matches)
		}
		if _, err := narrow.Retrieve(q); err != nil {
			t.Fatal(err)
		}
		if _, err := missing.Retrieve(q); !errors.Is(err, retrieval.ErrNoCoarseIndex) {
			t.Fatalf("coarse budget on the exact engine, q=%d: err = %v, want ErrNoCoarseIndex", qi, err)
		}
	}
}
