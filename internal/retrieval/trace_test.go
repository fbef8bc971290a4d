package retrieval

import (
	"bytes"
	"strings"
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

func TestWriterTracerRendering(t *testing.T) {
	var buf bytes.Buffer
	w := &WriterTracer{W: &buf}
	w.Event(TraceEvent{Kind: TraceVideoEnter, Video: 3, N: 0})
	w.Event(TraceEvent{Kind: TraceStage, Video: 3, Stage: 1, N: 2})
	w.Event(TraceEvent{Kind: TraceHop, Video: 5, Stage: 1})
	w.Event(TraceEvent{Kind: TraceComplete, State: 7, Value: 0.5})
	w.Event(TraceEvent{Kind: TraceDeadEnd, Video: 3, Stage: 2})
	out := buf.String()
	for _, want := range []string{"enter video 3", "stage 1: 2 cells", "hop -> video 5", "state 7 score 0.50000", "dead end"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceVideoEnter.String() != "video-enter" || TraceKind(99).String() != "trace(99)" {
		t.Error("TraceKind rendering wrong")
	}
}
