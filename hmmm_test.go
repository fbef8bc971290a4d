package hmmm

import (
	"path/filepath"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly the way the README
// quickstart does: corpus -> model -> engine -> query -> feedback ->
// retrain -> persist.
func TestFacadeEndToEnd(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Seed: 3, Videos: 6, Shots: 240, Annotated: 42})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Archive.NumShots() != 240 || corpus.Archive.NumAnnotated() != 42 {
		t.Fatalf("corpus stats wrong: %+v", corpus.Archive.Stats())
	}

	model, err := BuildModel(corpus, ModelOptions{LearnFeatureWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if model.NumStates() != 42 {
		t.Fatalf("states = %d, want 42", model.NumStates())
	}

	engine, err := NewEngine(model, SearchOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := CompileQuery("goal -> free_kick | foul")
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 2 {
		t.Fatalf("expanded to %d patterns, want 2", len(queries))
	}
	var all []Match
	for _, q := range queries {
		res, err := engine.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res.Matches...)
	}
	merged := MergeRanked(all, 5)
	if len(merged) == 0 {
		t.Fatal("no matches via facade")
	}

	log := NewFeedbackLog()
	q := NewQuery(EventGoal)
	res, err := engine.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if ExactMatch(model, m, q) {
			if err := log.MarkPositive(model, m.States); err != nil {
				t.Fatal(err)
			}
		}
	}
	trainer := NewTrainer(1)
	if !trainer.Due(log) {
		t.Fatal("trainer not due at threshold")
	}
	if model, err = trainer.Retrain(model, log); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumStates() != model.NumStates() {
		t.Fatal("persisted model lost states")
	}
}

func TestFacadeDefaultsToPaperScaleConfig(t *testing.T) {
	// Zero dimensions select the paper scale; just validate the wiring
	// without paying full generation cost (validate the config error
	// path instead).
	if _, err := GenerateCorpus(CorpusConfig{Seed: 1, Videos: 3, Shots: 2, Annotated: 0}); err == nil {
		t.Error("invalid dimensions accepted")
	}
}

func TestParseEventFacade(t *testing.T) {
	e, err := ParseEvent("corner_kick")
	if err != nil || e != EventCornerKick {
		t.Fatalf("ParseEvent = %v, %v", e, err)
	}
	if len(Events()) != 8 {
		t.Errorf("taxonomy size = %d, want 8", len(Events()))
	}
}

func TestParseMATNFacade(t *testing.T) {
	n, err := ParseMATN("goal -> foul?")
	if err != nil {
		t.Fatal(err)
	}
	if n.States != 3 {
		t.Errorf("network states = %d, want 3", n.States)
	}
}

func TestFacadeExplainAndQBE(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Seed: 8, Videos: 5, Shots: 200, Annotated: 30})
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildModel(corpus, ModelOptions{LearnFeatureWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(model, SearchOptions{TopK: 3, Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(EventGoal)
	res, err := engine.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no goal matches")
	}
	exps, err := engine.Explain(res.Matches[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || exps[0].Weight != res.Matches[0].Weights[0] {
		t.Errorf("explanation mismatch: %+v", exps)
	}

	// QBE with the raw features of a known goal shot must return it first.
	goalState := res.Matches[0].States[0]
	goalShot := model.States[goalState].Shot
	raw := corpus.Features[goalShot]
	matches, err := engine.QueryByExample(raw, EventGoal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].States[0] != goalState {
		t.Errorf("QBE top = state %d, want the probe's own state %d", matches[0].States[0], goalState)
	}
}

func TestFacadeClusterVideos(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Seed: 17, Videos: 12, Shots: 1200, Annotated: 480})
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildModel(corpus, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterVideos(model, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(corpus.Archive.Videos))
	for i, v := range corpus.Archive.Videos {
		labels[i] = v.Genre
	}
	if p := ClusterPurity(res.Assign, labels, 3); p < 0.8 {
		t.Errorf("facade clustering purity = %v, want >= 0.8", p)
	}
}
