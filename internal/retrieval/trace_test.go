package retrieval

import (
	"testing"

	"github.com/videodb/hmmm/internal/videomodel"
)

func TestTracerCollectsExecution(t *testing.T) {
	m := fixtureModel(t)
	tracer := &CollectTracer{}
	e, err := NewEngine(m, Options{AnnotatedOnly: true, Beam: 4, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Retrieve(NewQuery(videomodel.EventGoal, videomodel.EventFreeKick))
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Count(TraceVideoEnter) != res.Cost.VideosSeen {
		t.Errorf("video-enter events = %d, videos seen = %d", tracer.Count(TraceVideoEnter), res.Cost.VideosSeen)
	}
	if tracer.Count(TraceComplete) != len(res.Matches) {
		t.Errorf("complete events = %d, matches = %d", tracer.Count(TraceComplete), len(res.Matches))
	}
	if tracer.Count(TraceStage) == 0 {
		t.Error("no stage events")
	}
	// v0's goal at its last state cannot continue: some dead end occurs.
	if tracer.Count(TraceDeadEnd) == 0 {
		t.Error("no dead-end events despite non-continuable candidates")
	}
}

func TestTracerHopEvents(t *testing.T) {
	m := fixtureModel(t)
	tracer := &CollectTracer{}
	e, err := NewEngine(m, Options{AnnotatedOnly: true, CrossVideo: true, Beam: 4, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Retrieve(NewQuery(videomodel.EventCornerKick, videomodel.EventFoul)); err != nil {
		t.Fatal(err)
	}
	if tracer.Count(TraceHop) == 0 {
		t.Error("cross-video query produced no hop events")
	}
}

// TestTracerDoesNotPerturbResult checks that attaching a tracer leaves
// matches and Cost bit-identical, and that the video-enter events number
// the visit order 0, 1, 2, … with one event per expanded video.
func TestTracerDoesNotPerturbResult(t *testing.T) {
	m := equivModel(t)
	q := NewQuery(videomodel.EventCornerKick, videomodel.EventGoal, videomodel.EventFoul)
	opts := Options{TopK: 5, Beam: 4, CrossVideo: true, AnnotatedOnly: true}
	plain := mustRetrieve(t, m, opts, q)
	tracer := &CollectTracer{}
	opts.Tracer = tracer
	requireEqualResults(t, plain, mustRetrieve(t, m, opts, q))
	pos := 0
	for _, ev := range tracer.Events() {
		if ev.Kind != TraceVideoEnter {
			continue
		}
		if ev.N != pos {
			t.Fatalf("video-enter %d carries position %d", pos, ev.N)
		}
		pos++
	}
	if pos != plain.Cost.VideosSeen {
		t.Errorf("video-enter events = %d, videos seen = %d", pos, plain.Cost.VideosSeen)
	}
}

// TestTracePruneMarksTheCut checks the certified cut's trace event: one
// per pruned retrieval, N the Step-2 candidates left unexpanded, Value
// the K-th best score — the last returned match's — which every skipped
// video's bound falls strictly below.
func TestTracePruneMarksTheCut(t *testing.T) {
	m := equivModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	tracer := &CollectTracer{}
	eng, err := NewEngine(m, Options{TopK: 2, Beam: 4, AnnotatedOnly: true, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []TraceEvent
	entered := make(map[int]bool)
	for _, ev := range tracer.Events() {
		switch ev.Kind {
		case TracePrune:
			cuts = append(cuts, ev)
		case TraceVideoEnter:
			entered[ev.Video] = true
		}
	}
	if len(cuts) != 1 {
		t.Fatalf("%d prune events, want 1", len(cuts))
	}
	cut := cuts[0]
	if want := eng.Step2Candidates(q) - res.Cost.VideosSeen; cut.N != want || want == 0 {
		t.Errorf("prune skipped %d videos, want %d (> 0)", cut.N, want)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("%d matches, want 2", len(res.Matches))
	}
	if cut.Value != res.Matches[1].Score {
		t.Errorf("prune threshold %v, want the K-th best score %v", cut.Value, res.Matches[1].Score)
	}
	for v := 0; v < m.NumVideos(); v++ {
		if eng.videoHasStep(v, q.Steps[0]) && !entered[v] && eng.VideoBound(v, q) >= cut.Value {
			t.Errorf("skipped video %d has bound %v >= threshold %v", v, eng.VideoBound(v, q), cut.Value)
		}
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceVideoEnter.String() != "video-enter" || TracePrune.String() != "prune" || TraceKind(99).String() != "trace(99)" {
		t.Error("TraceKind rendering wrong")
	}
}
