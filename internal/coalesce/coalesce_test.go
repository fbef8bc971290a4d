package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/obs"
)

// TestSingleExecutionFanOut: N concurrent identical calls execute fn
// once and all receive the same value; leaders + hits == requests.
func TestSingleExecutionFanOut(t *testing.T) {
	g := NewGroup[int]()
	reg := obs.NewRegistry()
	g.Requests = reg.Counter("r", "")
	g.Leaders = reg.Counter("l", "")
	g.Hits = reg.Counter("h", "")

	var execs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const n = 16
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
				execs.Add(1)
				close(started)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			// The leader's call was shared too: waiters attached to it.
			if !shared {
				t.Errorf("caller %d: shared = false, want true for the leader and every waiter", i)
			}
			results[i] = v
		}(i)
	}
	<-started
	// Wait until the rest have attached as waiters, then release the
	// leader. Requests counts a caller before it attaches, so a caller
	// counted there could still arrive after the leader finished and
	// (correctly) start a fresh execution; Hits counts only attached ones.
	for g.Hits.Value() < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if l, h, r := g.Leaders.Value(), g.Hits.Value(), g.Requests.Value(); l+h != r || l != 1 {
		t.Errorf("leaders=%d hits=%d requests=%d, want leaders+hits==requests and 1 leader", l, h, r)
	}
	if g.Inflight() != 0 {
		t.Errorf("inflight = %d after drain, want 0", g.Inflight())
	}
}

// TestWaiterCancellationDoesNotCancelLeader: a waiter abandoning the
// call leaves the execution context live while the leader (and another
// waiter) remain; the survivors get the result.
func TestWaiterCancellationDoesNotCancelLeader(t *testing.T) {
	g := NewGroup[string]()
	g.Hits = obs.NewRegistry().Counter("h", "")
	started := make(chan struct{})
	release := make(chan struct{})
	var execErr atomic.Value

	leaderDone := make(chan string, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func(ctx context.Context) (string, error) {
			close(started)
			<-release
			if err := ctx.Err(); err != nil {
				execErr.Store(err)
			}
			return "ok", nil
		})
		leaderDone <- v
	}()
	<-started

	// A waiter joins and cancels; the execution context must stay live
	// because the leader's request is still a participant.
	wctx, wcancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(wctx, "k", func(ctx context.Context) (string, error) {
			t.Error("waiter must not execute fn")
			return "", nil
		})
		waiterErr <- err
	}()
	// Wait until the waiter has attached before cancelling it.
	for g.Hits.Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	wcancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if v := <-leaderDone; v != "ok" {
		t.Errorf("leader got %q, want ok", v)
	}
	if err := execErr.Load(); err != nil {
		t.Errorf("execution context cancelled while leader remained: %v", err)
	}
}

// TestLastParticipantCancelsExecution: when every participant (leader's
// request included) goes away, the execution context is cancelled so the
// work can stop.
func TestLastParticipantCancelsExecution(t *testing.T) {
	g := NewGroup[int]()
	lctx, lcancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	sawCancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(lctx, "k", func(ctx context.Context) (int, error) {
			close(started)
			select {
			case <-ctx.Done():
				close(sawCancel)
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
				return 0, errors.New("execution context never cancelled")
			}
		})
		done <- err
	}()
	<-started
	lcancel() // last (only) participant leaves
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("execution context not cancelled after last participant left")
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
}

// TestReusedCallWatchesItsLeader runs a leader whose client leaves
// mid-execution, then a second solo leader on the same group, which may
// reuse the first one's call: its execution context must start live and
// still be cancelled when its own client leaves. A stop token left from
// the first call would end the second watcher at once.
func TestReusedCallWatchesItsLeader(t *testing.T) {
	g := NewGroup[int]()
	for round := 0; round < 3; round++ {
		lctx, lcancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, _, err := g.Do(lctx, "k", func(ctx context.Context) (int, error) {
				if err := ctx.Err(); err != nil {
					return 0, fmt.Errorf("execution context dead on arrival: %w", err)
				}
				close(started)
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Second):
					return 0, errors.New("execution context never cancelled")
				}
			})
			done <- err
		}()
		select {
		case <-started:
		case err := <-done:
			t.Fatalf("round %d: %v", round, err)
		}
		lcancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: leader err = %v, want context.Canceled", round, err)
		}
	}
}

// TestSoloLeaderAllocs pins what a leader no waiter joins costs: its
// call comes from the group's pool and no done channel is made, which
// leaves the watcher goroutine's closure and the execution context.
func TestSoloLeaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const maxSoloAllocs = 4
	g := NewGroup[int]()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fn := func(context.Context) (int, error) { return 1, nil }
	got := testing.AllocsPerRun(200, func() {
		if _, shared, err := g.Do(ctx, "k", fn); err != nil || shared {
			t.Fatalf("solo Do: shared=%v err=%v", shared, err)
		}
	})
	if got > maxSoloAllocs {
		t.Errorf("a solo Do allocates %.1f times, ceiling %d", got, maxSoloAllocs)
	} else {
		t.Logf("a solo Do allocates %.1f times (ceiling %d)", got, maxSoloAllocs)
	}
}

// TestLeaderPanicPropagatesError: waiters get a *PanicError, the leader
// goroutine re-panics with the original value.
func TestLeaderPanicPropagatesError(t *testing.T) {
	g := NewGroup[int]()
	g.Hits = obs.NewRegistry().Counter("h", "")
	started := make(chan struct{})
	release := make(chan struct{})

	waiterErr := make(chan error, 1)
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	go func() {
		_, _, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			return 0, nil
		})
		waiterErr <- err
	}()
	for g.Hits.Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	if v := <-leaderPanic; v != "boom" {
		t.Errorf("leader recovered %v, want boom", v)
	}
	err := <-waiterErr
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("waiter err = %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("PanicError.Value = %v, want boom", pe.Value)
	}
}

// TestDistinctKeysRunIndependently: different keys never share an
// execution.
func TestDistinctKeysRunIndependently(t *testing.T) {
	g := NewGroup[int]()
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), fmt.Sprintf("k%d", i), func(ctx context.Context) (int, error) {
				execs.Add(1)
				return i, nil
			})
			if err != nil || shared || v != i {
				t.Errorf("key k%d: v=%d shared=%v err=%v", i, v, shared, err)
			}
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 8 {
		t.Errorf("execs = %d, want 8", got)
	}
}

// TestSequentialCallsDoNotShare: no result caching — a call arriving
// after completion starts a fresh execution.
func TestSequentialCallsDoNotShare(t *testing.T) {
	g := NewGroup[int]()
	var execs atomic.Int64
	for i := 0; i < 3; i++ {
		_, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			execs.Add(1)
			return i, nil
		})
		if err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
	}
	if got := execs.Load(); got != 3 {
		t.Errorf("execs = %d, want 3 (no caching)", got)
	}
}

// TestNilGroupPassesThrough: a nil *Group executes fn directly with the
// caller's context.
func TestNilGroupPassesThrough(t *testing.T) {
	var g *Group[int]
	ctx := context.WithValue(context.Background(), ctxKey{}, "v")
	v, shared, err := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
		if fctx != ctx {
			t.Error("nil group must pass the caller's ctx through")
		}
		return 7, nil
	})
	if v != 7 || shared || err != nil {
		t.Errorf("nil group Do = (%d, %v, %v)", v, shared, err)
	}
}

type ctxKey struct{}
