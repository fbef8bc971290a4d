package obs

import (
	"sync"
	"time"
)

// Span is one timed section of a traced operation, with its start
// offset from the trace origin.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Trace collects named spans for one operation: the timing
// generalization of the retrieval package's event-level Tracer hook.
// Where a Tracer sees individual traversal events (video entered, stage
// expanded), a Trace sees how long each pipeline stage took — the view
// a slow-query log and stage-latency histograms need. It is safe for
// concurrent use (the parallel retrieval pipeline records spans from
// several workers), and a nil *Trace is a no-op at every method, so
// tracing stays strictly opt-in on the hot path.
type Trace struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace; span offsets are measured from this call.
func NewTrace() *Trace {
	return &Trace{t0: time.Now()}
}

var nopEnd = func() {}

// Span starts a named span and returns its end function. On a nil
// trace the returned function is a shared no-op and no clock is read.
func (t *Trace) Span(name string) func() {
	if t == nil {
		return nopEnd
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Start: start, Dur: end - start})
		t.mu.Unlock()
	}
}

// Record adds a span measured externally: start is the wall-clock span
// start, d its duration. Callers that already hold timestamps (the
// retrieval engine times its stages with two time.Now calls) use this
// instead of Span to avoid closure allocation.
func (t *Trace) Record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.t0), Dur: d})
	t.mu.Unlock()
}

// Totals sums span durations by name — the per-stage roll-up the
// slow-query log emits (a query that expands to several linear patterns
// records each stage once per pattern).
func (t *Trace) Totals() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, 4)
	for _, s := range t.spans {
		out[s.Name] += s.Dur
	}
	return out
}
