// Package coalesce implements context-aware request coalescing for the
// serving path: identical in-flight queries execute once, and the single
// result fans out to every waiter. It is singleflight with two serving
// hardenings the standard shape lacks:
//
//   - Cancellation is reference-counted. The leader's function runs on a
//     private execution context that is cancelled only when every
//     participant — the leader's own request and all waiters — has gone
//     away. A waiter abandoning the call never cancels work other
//     requests still want; the last participant leaving does.
//   - A panic in the leader's function is captured and delivered to the
//     waiters as a *PanicError, never re-raised on their goroutines. The
//     leader's own goroutine re-panics so its recovery middleware sees
//     the original value and the process-level contract ("a handler bug
//     costs one 500") is preserved for everyone.
//
// Calls are keyed by an opaque string; the server derives it from the
// canonical MATN pattern text, the result-affecting retrieval options,
// and the published model generation (see Key in this package and
// DESIGN.md §5g for why the generation must participate).
package coalesce

import (
	"context"
	"fmt"
	"sync"

	"github.com/videodb/hmmm/internal/obs"
)

// PanicError is the error waiters receive when the leader's function
// panicked. The leader itself re-panics with the original value.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("coalesce: leader panicked: %v", e.Value)
}

// call is one in-flight execution: the leader runs fn, waiters block on
// done. refs counts live participants (leader's request + waiters);
// cancel fires the execution context when refs drains to zero before
// completion. A call no waiter joined goes back to the group's pool for
// reuse: done is made only when the first waiter attaches, and stop and
// watching, the leader's handshake with its watcher, are kept across
// uses.
type call[V any] struct {
	done   chan struct{}
	val    V
	err    error
	refs   int
	cancel context.CancelFunc
	// stop (capacity 1) tells the watcher fn has returned; watching
	// counts the watcher until it has exited, after which no goroutine
	// but the leader's holds the call.
	stop     chan struct{}
	watching sync.WaitGroup
}

// Group coalesces concurrent calls by key. The zero value is not ready;
// use NewGroup. A nil *Group passes every call straight through to fn
// (coalescing disabled), so callers need no branching.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
	// free holds calls no waiter joined, for reuse.
	free sync.Pool

	// Requests counts every Do entry, Leaders the calls that executed
	// fn, Hits the calls that attached to an in-flight execution.
	// Leaders + Hits == Requests is a structural invariant (every entry
	// takes exactly one branch) and a tested one. Nil counters are safe.
	Requests *obs.Counter
	Leaders  *obs.Counter
	Hits     *obs.Counter
}

// NewGroup returns an empty group.
func NewGroup[V any]() *Group[V] {
	return &Group[V]{calls: make(map[string]*call[V])}
}

// Do executes fn for key, coalescing with any identical in-flight call:
// the first caller (the leader) runs fn and every concurrent caller with
// the same key receives the same result. The returned bool reports
// whether the call was shared: always for a waiter, and for the leader
// when a waiter attached — a leader that was alone may reuse what v
// points to once it is done with v.
//
// fn receives the group's private execution context, NOT ctx: it stays
// live until fn returns or every participant's ctx is done, whichever
// comes first. ctx is each caller's own request context; a waiter whose
// ctx expires stops waiting and gets ctx.Err(), without disturbing the
// execution as long as any other participant remains.
//
// There is no result cache: a call arriving after the in-flight
// execution completed starts a fresh one (results must always reflect a
// model generation the caller could have observed).
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (V, bool, error) {
	if g == nil {
		v, err := fn(ctx)
		return v, false, err
	}
	g.Requests.Inc()
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.refs++
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		g.mu.Unlock()
		g.Hits.Inc()
		select {
		case <-done:
			return c.val, true, c.err
		case <-ctx.Done():
			g.leave(c)
			var zero V
			return zero, true, ctx.Err()
		}
	}
	execCtx, cancel := context.WithCancel(context.Background())
	c, _ := g.free.Get().(*call[V])
	if c == nil {
		c = &call[V]{stop: make(chan struct{}, 1)}
	}
	c.refs, c.cancel = 1, cancel
	g.calls[key] = c
	g.mu.Unlock()
	g.Leaders.Inc()

	// The leader's own request counts as a participant: if its client
	// disconnects while waiters remain, execution continues for them; if
	// it was the last one standing, leaving cancels the execution. The
	// leader waits for the watcher to exit, so it never outlives the
	// call.
	c.watching.Add(1)
	go func() {
		defer c.watching.Done()
		select {
		case <-ctx.Done():
			g.leave(c)
		case <-c.stop:
		}
	}()

	var panicked any
	func() {
		defer func() {
			if v := recover(); v != nil {
				panicked = v
				c.err = &PanicError{Value: v}
			}
		}()
		c.val, c.err = fn(execCtx)
	}()

	g.mu.Lock()
	delete(g.calls, key)
	shared := c.done != nil
	if shared {
		close(c.done)
	}
	g.mu.Unlock()
	// Release the execution context's resources; everyone interested has
	// the result (or the PanicError) by now.
	cancel()
	c.stop <- struct{}{}
	c.watching.Wait()
	if panicked != nil {
		panic(panicked)
	}
	v, err := c.val, c.err
	if !shared {
		// No waiter holds the call: empty the stop token a watcher that
		// left through ctx never took, and reuse it.
		select {
		case <-c.stop:
		default:
		}
		var zero V
		c.val, c.err, c.cancel = zero, nil, nil
		g.free.Put(c)
	}
	return v, shared, err
}

// leave drops one participant; the last one out cancels the execution
// context so the leader's fn can stop doing work nobody wants. Cancelling
// after completion is a harmless no-op.
func (g *Group[V]) leave(c *call[V]) {
	g.mu.Lock()
	c.refs--
	last := c.refs == 0
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Inflight reports the number of distinct keys currently executing
// (observability and tests).
func (g *Group[V]) Inflight() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
