package feedback

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

func model(t testing.TB) *hmmm.Model {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 5, Videos: 4, Shots: 100, Annotated: 28, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMarkPositiveAccumulates(t *testing.T) {
	m := model(t)
	log := NewLog()
	if err := log.MarkPositive(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := log.MarkPositive(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := log.MarkPositive(m, []int{2}); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Errorf("distinct patterns = %d, want 2", log.Len())
	}
	if log.Pending() != 3 {
		t.Errorf("pending = %d, want 3", log.Pending())
	}
	pats := log.ShotPatterns()
	var found bool
	for _, p := range pats {
		if len(p.States) == 2 && p.States[0] == 0 && p.States[1] == 1 {
			found = true
			if p.Freq != 2 {
				t.Errorf("repeated pattern freq = %d, want 2", p.Freq)
			}
		}
	}
	if !found {
		t.Error("pattern [0 1] not recorded")
	}
}

func TestMarkPositiveErrors(t *testing.T) {
	m := model(t)
	log := NewLog()
	if err := log.MarkPositive(m, nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := log.MarkPositive(m, []int{9999}); err == nil {
		t.Error("out-of-range state accepted")
	}
}

func TestVideoPatternsDerived(t *testing.T) {
	m := model(t)
	log := NewLog()
	// Find two states in different videos.
	var a, b int = -1, -1
	for i := range m.States {
		if m.States[i].VideoIdx == 0 && a == -1 {
			a = i
		}
		if m.States[i].VideoIdx == 1 && b == -1 {
			b = i
		}
	}
	if a < 0 || b < 0 {
		t.Skip("fixture lacks two videos with states")
	}
	if err := log.MarkPositive(m, []int{a, b}); err != nil {
		t.Fatal(err)
	}
	vp := log.VideoPatterns()
	if len(vp) != 1 || len(vp[0].States) != 2 {
		t.Fatalf("video patterns = %+v, want one 2-video pattern", vp)
	}
}

func TestTrainerThreshold(t *testing.T) {
	m := model(t)
	log := NewLog()
	tr := NewTrainer(3)
	if err := log.MarkPositive(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if tr.Due(log) {
		t.Error("due below threshold")
	}
	if err := log.MarkPositive(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := log.MarkPositive(m, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !tr.Due(log) {
		t.Error("not due at threshold")
	}
	next, err := tr.Retrain(m, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(1e-9); err != nil {
		t.Fatalf("model invalid after retrain: %v", err)
	}
}

func TestRetrainReinforcesPattern(t *testing.T) {
	m := model(t)
	// Pick two consecutive states of the same video.
	var a, b int = -1, -1
	for i := 0; i+1 < len(m.States); i++ {
		if m.States[i].VideoIdx == m.States[i+1].VideoIdx {
			a, b = i, i+1
			break
		}
	}
	if a < 0 {
		t.Skip("no same-video state pair")
	}
	vi := m.States[a].VideoIdx
	la, lb := m.States[a].LocalIdx, m.States[b].LocalIdx
	before := m.LocalA[vi].At(la, lb)

	log := NewLog()
	for i := 0; i < 5; i++ {
		if err := log.MarkPositive(m, []int{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	tr := NewTrainer(1)
	next, err := tr.Retrain(m, log)
	if err != nil {
		t.Fatal(err)
	}
	after := next.LocalA[vi].At(la, lb)
	if after <= before {
		t.Errorf("A1(%d,%d) = %v after retrain, want > %v", la, lb, after, before)
	}
}

// TestRetrainLeavesInputUntouched pins Retrain's contract: the input model
// stays bit-identical to a copy taken before the call, the pending count
// is left for the caller to reset, and retraining the same model from the
// same log twice yields the same model.
func TestRetrainLeavesInputUntouched(t *testing.T) {
	m := model(t)
	log := NewLog()
	for _, states := range [][]int{{0, 1}, {0, 1}, {2, 3}, {m.NumStates() - 1}} {
		if err := log.MarkPositive(m, states); err != nil {
			t.Fatal(err)
		}
	}
	want := m.Clone()
	tr := NewTrainer(1)
	next, err := tr.Retrain(m, log)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatal("Retrain mutated its input model")
	}
	if next == m || reflect.DeepEqual(next, m) {
		t.Fatal("Retrain returned the untrained model")
	}
	if log.Pending() != 4 {
		t.Errorf("pending after retrain = %d, want 4 (the caller resets it)", log.Pending())
	}
	again, err := tr.Retrain(m, log)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, next) {
		t.Error("retraining the same model from the same log is not deterministic")
	}
}

// TestRetrainMetrics checks the trainer counts a successful retrain with
// its duration, and a failed one (a log recorded against a larger model)
// as a failure that returns no model.
func TestRetrainMetrics(t *testing.T) {
	m := model(t)
	reg := obs.NewRegistry()
	tr := NewTrainer(1)
	tr.Metrics = &TrainerMetrics{
		Retrains: reg.Counter("retrains_total", "r"),
		Failures: reg.Counter("failures_total", "f"),
		Seconds:  reg.Histogram("retrain_seconds", "s", nil),
	}
	log := NewLog()
	if err := log.MarkPositive(m, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Retrain(m, log); err != nil {
		t.Fatal(err)
	}
	small := m.Clone()
	small.States = small.States[:1]
	if next, err := tr.Retrain(small, log); err == nil || next != nil {
		t.Fatalf("retrain against a smaller model: model %v, err %v", next, err)
	}
	if r, f := tr.Metrics.Retrains.Value(), tr.Metrics.Failures.Value(); r != 1 || f != 1 {
		t.Errorf("retrains = %d, failures = %d, want 1 and 1", r, f)
	}
}

func TestLogConcurrentSafety(t *testing.T) {
	m := model(t)
	log := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = log.MarkPositive(m, []int{w % m.NumStates()})
			}
		}(w)
	}
	wg.Wait()
	if log.Pending() != 400 {
		t.Errorf("pending = %d, want 400", log.Pending())
	}
}

func TestSimulatedUserExactJudgment(t *testing.T) {
	m := model(t)
	// Find a state annotated with some event; build a 1-step query for it.
	var si int = -1
	var ev videomodel.Event
	for i := range m.States {
		if len(m.States[i].Events) > 0 {
			si = i
			ev = m.States[i].Events[0]
			break
		}
	}
	if si < 0 {
		t.Fatal("no annotated state")
	}
	q := retrieval.NewQuery(ev)
	good := retrieval.Match{States: []int{si}}
	// A state NOT annotated with ev.
	var bad retrieval.Match
	for i := range m.States {
		if !m.States[i].HasEvent(ev) {
			bad = retrieval.Match{States: []int{i}}
			break
		}
	}
	u := NewSimulatedUser(1, 0)
	pos := u.Judge(m, q, []retrieval.Match{good, bad})
	if len(pos) != 1 || pos[0][0] != si {
		t.Errorf("judgments = %v, want only state %d", pos, si)
	}
}

func TestSimulatedUserNoiseFlips(t *testing.T) {
	m := model(t)
	var si int
	var ev videomodel.Event
	for i := range m.States {
		if len(m.States[i].Events) > 0 {
			si, ev = i, m.States[i].Events[0]
			break
		}
	}
	q := retrieval.NewQuery(ev)
	match := retrieval.Match{States: []int{si}}
	u := NewSimulatedUser(3, 1.0) // always flip
	if pos := u.Judge(m, q, []retrieval.Match{match}); len(pos) != 0 {
		t.Errorf("noise=1 should flip the positive judgment, got %v", pos)
	}
}

func TestTrainerDefaultThreshold(t *testing.T) {
	m := model(t)
	log := NewLog()
	tr := NewTrainer(0)
	if tr.Due(log) {
		t.Error("due with no feedback")
	}
	if err := log.MarkPositive(m, []int{0}); err != nil {
		t.Fatal(err)
	}
	if !tr.Due(log) {
		t.Error("threshold<=0 should behave as 1")
	}
}

func TestLogSaveLoadRoundTrip(t *testing.T) {
	m := model(t)
	log := NewLog()
	for i := 0; i < 3; i++ {
		if err := log.MarkPositive(m, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.MarkPositive(m, []int{2}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Pending() != log.Pending() {
		t.Errorf("pending = %d, want %d", loaded.Pending(), log.Pending())
	}
	if loaded.Len() != log.Len() {
		t.Errorf("len = %d, want %d", loaded.Len(), log.Len())
	}
	a, b := log.ShotPatterns(), loaded.ShotPatterns()
	if len(a) != len(b) {
		t.Fatalf("pattern counts differ")
	}
	for i := range a {
		if a[i].Freq != b[i].Freq || len(a[i].States) != len(b[i].States) {
			t.Fatalf("pattern %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	vp := loaded.VideoPatterns()
	if len(vp) != len(log.VideoPatterns()) {
		t.Error("video patterns lost")
	}
}

func TestLoadLogGarbage(t *testing.T) {
	if _, err := LoadLog(strings.NewReader("junk")); err == nil {
		t.Error("garbage accepted")
	}
}
