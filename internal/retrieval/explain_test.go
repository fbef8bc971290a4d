package retrieval

import (
	"math"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

func TestExplainReproducesWeights(t *testing.T) {
	m := fixtureModel(t)
	e, err := NewEngine(m, Options{AnnotatedOnly: true, Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches to explain")
	}
	match := res.Matches[0]
	exps, err := e.Explain(match, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(match.States) {
		t.Fatalf("explanations = %d, want %d", len(exps), len(match.States))
	}
	for j, ex := range exps {
		if math.Abs(ex.Weight-match.Weights[j]) > 1e-12 {
			t.Errorf("step %d explained weight %v != engine weight %v", j, ex.Weight, match.Weights[j])
		}
		if j == 0 {
			if ex.Pi == 0 || ex.Transition != 0 {
				t.Errorf("first step factors wrong: %+v", ex)
			}
		} else if ex.Transition == 0 {
			t.Errorf("step %d missing transition factor", j)
		}
		if len(ex.Features) == 0 {
			t.Errorf("step %d has no feature breakdown", j)
		}
		if len(ex.Features) > ExplainTopFeatures {
			t.Errorf("step %d breakdown too long: %d", j, len(ex.Features))
		}
		// Contributions must be sorted descending.
		for i := 1; i < len(ex.Features); i++ {
			if ex.Features[i].Term > ex.Features[i-1].Term {
				t.Errorf("step %d contributions unsorted", j)
			}
		}
	}
}

func TestExplainCrossVideoStep(t *testing.T) {
	m := fixtureModel(t)
	e, err := NewEngine(m, Options{AnnotatedOnly: true, CrossVideo: true, Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(videomodel.EventCornerKick, videomodel.EventFoul)
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		if !ExactMatch(m, match, q) {
			continue
		}
		exps, err := e.Explain(match, q)
		if err != nil {
			t.Fatal(err)
		}
		if !exps[1].CrossVideo {
			t.Errorf("cross-video step not flagged: %+v", exps[1])
		}
		if math.Abs(exps[1].Weight-match.Weights[1]) > 1e-12 {
			t.Errorf("cross-video weight mismatch: %v vs %v", exps[1].Weight, match.Weights[1])
		}
		return
	}
	t.Fatal("no cross-video exact match found")
}

func TestExplainErrors(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{})
	q := NewQuery(videomodel.EventGoal)
	if _, err := e.Explain(Match{States: []int{0, 1}}, q); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := e.Explain(Match{States: []int{999}}, q); err == nil {
		t.Error("out-of-range state accepted")
	}
	if _, err := e.Explain(Match{}, Query{}); err == nil {
		t.Error("empty match accepted")
	}
}

func TestQueryByExampleFindsSimilarShot(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{})
	// Use state 3's own raw-ish vector: reconstruct by inverting is not
	// possible, so probe with a vector that normalizes close to its B1
	// row: the goal-channel heavy vector from the fixture generator.
	probe := []float64{0.9, 0.2, 0.2, 0.2}
	matches, err := e.QueryByExample(probe, videomodel.EventNone, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("matches = %d, want 3", len(matches))
	}
	// The top match must be a goal-annotated state (high f0).
	top := matches[0].States[0]
	if !m.States[top].HasEvent(videomodel.EventGoal) {
		t.Errorf("QBE top match state %d is not a goal shot: %v", top, m.States[top].Events)
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Error("QBE matches unsorted")
		}
	}
}

func TestQueryByExampleConceptWeights(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{})
	probe := []float64{0.2, 0.85, 0.2, 0.2} // free-kick channel
	matches, err := e.QueryByExample(probe, videomodel.EventFreeKick, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := matches[0].States[0]
	if !m.States[top].HasEvent(videomodel.EventFreeKick) {
		t.Errorf("concept-weighted QBE top state %d events = %v", top, m.States[top].Events)
	}
}

func TestQueryByExampleErrors(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{})
	if _, err := e.QueryByExample([]float64{1}, videomodel.EventNone, 5); err == nil {
		t.Error("wrong-width example accepted")
	}
}

func TestRankVideos(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{})
	ranks, err := e.RankVideos(NewQuery(videomodel.EventGoal, videomodel.EventFreeKick))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != m.NumVideos() {
		t.Fatalf("ranks = %d, want %d", len(ranks), m.NumVideos())
	}
	// v0 and v1 both contain goal and free_kick; v2 contains neither.
	if ranks[len(ranks)-1].VideoIdx != 2 || ranks[len(ranks)-1].Score != 0 {
		t.Errorf("video without events should rank last with 0: %+v", ranks)
	}
	// v1 has 2 goals + 1 free kick vs v0's 1 goal + 2 free kicks: both
	// positive.
	if ranks[0].Score <= 0 {
		t.Errorf("top video score = %v, want > 0", ranks[0].Score)
	}
	for i := 1; i < len(ranks); i++ {
		if ranks[i].Score > ranks[i-1].Score {
			t.Error("ranks unsorted")
		}
	}
	if _, err := e.RankVideos(Query{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSimilarVideos(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{})
	// v0 {free_kick x2, goal, corner} vs v1 {goal x2, free_kick} share
	// events; v2 {foul, corner} overlaps v0 only via corner.
	sims, err := e.SimilarVideos(0, 1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 2 {
		t.Fatalf("similar videos = %d, want 2", len(sims))
	}
	if sims[0].VideoIdx != 1 {
		t.Errorf("most similar to v0 = v%d, want v1 (shared goal/free kick profile)", sims[0].VideoIdx)
	}

	if _, err := e.SimilarVideos(99, 0.5, 5); err == nil {
		t.Error("out-of-range video accepted")
	}
	if _, err := e.SimilarVideos(0, 2, 5); err == nil {
		t.Error("bad alpha accepted")
	}
}

func TestSimilarVideosUsesA2(t *testing.T) {
	// Train A2 so v0 co-accesses v2 heavily; with alpha=0 similarity is
	// pure A2 and v2 must win despite dissimilar profiles.
	m, err := fixtureModel(t).Train(nil, []mmm.AccessPattern{{States: []int{0, 2}, Freq: 10}}, hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(m, Options{})
	sims, err := e.SimilarVideos(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sims[0].VideoIdx != 2 {
		t.Errorf("A2-trained similarity top = v%d, want v2", sims[0].VideoIdx)
	}
}
