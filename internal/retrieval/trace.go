package retrieval

import (
	"fmt"
	"sync"
)

// TraceEvent is one step of a retrieval's execution, emitted when the
// engine runs with a Tracer: the EXPLAIN ANALYZE view of the Figure-2
// process.
type TraceEvent struct {
	Kind  TraceKind
	Video int     // video index (video-scoped events)
	Stage int     // query stage j (stage-scoped events)
	State int     // global state index (state-scoped events)
	N     int     // candidate / path counts
	Value float64 // weight or score associated with the event
}

// TraceKind enumerates trace event types.
type TraceKind int

// Trace event kinds.
const (
	TraceVideoEnter TraceKind = iota // expanding a level-2 state; N = order position
	TraceStage                       // a lattice stage expanded; N = surviving cells
	TraceHop                         // cross-video continuation; Video = target video
	TraceComplete                    // a candidate sequence completed; Value = SS score
	TraceDeadEnd                     // a video's lattice died before the final stage
	TraceEarlyStop                   // StopAfterMatches threshold reached; N = raw matches collected
	TracePrune                       // certified cut; N = candidate videos skipped, Value = K-th best score
)

func (k TraceKind) String() string {
	switch k {
	case TraceVideoEnter:
		return "video-enter"
	case TraceStage:
		return "stage"
	case TraceHop:
		return "hop"
	case TraceComplete:
		return "complete"
	case TraceDeadEnd:
		return "dead-end"
	case TraceEarlyStop:
		return "early-stop"
	case TracePrune:
		return "prune"
	default:
		return fmt.Sprintf("trace(%d)", int(k))
	}
}

// Tracer receives trace events during retrieval. One retrieval emits its
// events from a single goroutine, in traversal order; a Tracer shared
// across concurrent requests must be safe for concurrent use.
type Tracer interface {
	Event(TraceEvent)
}

// CollectTracer accumulates events in memory. Its mutex makes one
// collector safe to share across concurrent requests.
type CollectTracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Event implements Tracer.
func (c *CollectTracer) Event(ev TraceEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the collected events.
func (c *CollectTracer) Events() []TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TraceEvent(nil), c.events...)
}

// Count returns how many events of the kind were collected.
func (c *CollectTracer) Count(kind TraceKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// emit sends an event to the configured tracer, if any.
func (e *Engine) emit(ev TraceEvent) {
	if e.opts.Tracer != nil {
		e.opts.Tracer.Event(ev)
	}
}
