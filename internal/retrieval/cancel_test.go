// Cancellation and deadline semantics of RetrieveContext. These live in
// an external test package so they can drive the engine through the
// fault-injection harness (faultinject imports retrieval for the Tracer
// type, which would cycle with an in-package test).
package retrieval_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/faultinject"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// cancelModel builds a mid-size archive: enough lattice work that a
// slowed traversal overruns any millisecond deadline, small enough that
// the -race runs stay quick.
func cancelModel(t testing.TB) *hmmm.Model {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 77, Videos: 12, Shots: 1200, Annotated: 120, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cancelQuery() retrieval.Query {
	return retrieval.NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
}

// TestRetrieveContextBackgroundIdentical pins the zero-cost property: a
// never-cancelled context changes nothing about the result.
func TestRetrieveContextBackgroundIdentical(t *testing.T) {
	m := cancelModel(t)
	eng, err := retrieval.NewEngine(m, retrieval.Options{Beam: 4, TopK: 10, AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	q := cancelQuery()
	plain, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := eng.RetrieveContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ctxed.Cost != plain.Cost {
		t.Errorf("cost differs: %+v vs %+v", ctxed.Cost, plain.Cost)
	}
	if ctxed.Cost.Truncated {
		t.Error("background context marked truncated")
	}
	if len(ctxed.Matches) != len(plain.Matches) {
		t.Fatalf("match count differs: %d vs %d", len(ctxed.Matches), len(plain.Matches))
	}
	for i := range plain.Matches {
		if ctxed.Matches[i].Score != plain.Matches[i].Score {
			t.Errorf("match %d score %v vs %v", i, ctxed.Matches[i].Score, plain.Matches[i].Score)
		}
	}
}

// TestRetrieveContextDeadline is the headline resilience property: a
// query that would otherwise run for a long time (each lattice trace
// event is slowed artificially) honors a 1ms deadline, returning a valid
// partial ranking with Truncated set within a small multiple of the
// deadline instead of running to completion.
func TestRetrieveContextDeadline(t *testing.T) {
	m := cancelModel(t)
	slow := &faultinject.SlowTracer{PerEvent: time.Millisecond}
	eng, err := retrieval.NewEngine(m, retrieval.Options{
		Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.RetrieveContext(ctx, cancelQuery())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("expired context must not error: %v", err)
	}
	if !res.Cost.Truncated {
		t.Error("Truncated not set on deadline expiry")
	}
	// ~10ms is the intent; allow generous slack for loaded CI machines.
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline overrun: took %v", elapsed)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Score > res.Matches[i-1].Score {
			t.Error("partial result not ranked")
		}
	}
	for _, match := range res.Matches {
		for _, s := range match.States {
			if s < 0 || s >= m.NumStates() {
				t.Fatalf("partial result holds invalid state %d", s)
			}
		}
	}
	t.Logf("deadline 1ms: returned in %v after %d trace events, %d matches",
		elapsed, slow.Events(), len(res.Matches))
}

// TestRetrieveContextPreCancelled: a context dead on arrival yields an
// empty truncated result, not an error or a full search.
func TestRetrieveContextPreCancelled(t *testing.T) {
	m := cancelModel(t)
	eng, err := retrieval.NewEngine(m, retrieval.Options{Beam: 4, TopK: 10, AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.RetrieveContext(ctx, cancelQuery())
	if err != nil {
		t.Fatalf("cancelled context must not error: %v", err)
	}
	if !res.Cost.Truncated {
		t.Error("Truncated not set")
	}
	if len(res.Matches) != 0 {
		t.Errorf("pre-cancelled query returned %d matches", len(res.Matches))
	}
	if res.Cost.VideosSeen != 0 {
		t.Errorf("pre-cancelled query expanded %d videos", res.Cost.VideosSeen)
	}
}

// TestRetrieveContextCancelMidFlight cancels a slowed retrieval while it
// runs: the loop notices within a bounded time and returns a ranked
// partial result with Truncated set. Under -race it also covers the
// cancelling goroutine against the search loop's context polling.
func TestRetrieveContextCancelMidFlight(t *testing.T) {
	m := cancelModel(t)
	slow := &faultinject.SlowTracer{PerEvent: 200 * time.Microsecond}
	eng, err := retrieval.NewEngine(m, retrieval.Options{
		Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.RetrieveContext(ctx, cancelQuery())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled retrieve errored: %v", err)
	}
	if !res.Cost.Truncated {
		t.Error("Truncated not set after mid-flight cancel")
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancel unwound too slowly: %v", elapsed)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Score > res.Matches[i-1].Score {
			t.Error("partial result not ranked")
		}
	}
}

// TestRetrieveContextDeadlineSerialLargeBeam drives the serial path with
// a wide beam and the similarity fallback (the pathological query class
// the admission/timeout story exists for) and asserts the per-edge tick
// polling aborts it.
func TestRetrieveContextDeadlineSerialLargeBeam(t *testing.T) {
	m := cancelModel(t)
	slow := &faultinject.SlowTracer{PerEvent: 500 * time.Microsecond}
	eng, err := retrieval.NewEngine(m, retrieval.Options{
		Beam: 64, TopK: 50, CrossVideo: true, AnnotatedOnly: false, Tracer: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := retrieval.NewQuery(
		videomodel.EventGoal, videomodel.EventFreeKick, videomodel.EventFoul,
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.RetrieveContext(ctx, q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Truncated {
		t.Error("Truncated not set")
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("pathological query overran its deadline by too much: %v", elapsed)
	}
}

// TestOptionsDeadline is TestRetrieveContextDeadline with the deadline
// as a view's Options.Deadline under a background context: the slowed
// traversal stops within a small multiple of it and returns a ranked
// partial with Truncated set. A deadline already past stops the search
// before its first video.
func TestOptionsDeadline(t *testing.T) {
	m := cancelModel(t)
	slow := &faultinject.SlowTracer{PerEvent: time.Millisecond}
	eng, err := retrieval.NewEngine(m, retrieval.Options{
		Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	opts := retrieval.Options{Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow, Deadline: start.Add(time.Millisecond)}
	res, err := eng.WithOptions(opts).RetrieveContext(context.Background(), cancelQuery())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("expired deadline must not error: %v", err)
	}
	if !res.Cost.Truncated {
		t.Error("Truncated not set on deadline expiry")
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("deadline overrun: took %v", elapsed)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Score > res.Matches[i-1].Score {
			t.Error("partial result not ranked")
		}
	}
	for _, match := range res.Matches {
		for _, s := range match.States {
			if s < 0 || s >= m.NumStates() {
				t.Fatalf("partial result holds invalid state %d", s)
			}
		}
	}

	opts.Deadline = time.Now().Add(-time.Second)
	res, err = eng.WithOptions(opts).Retrieve(cancelQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Truncated || len(res.Matches) != 0 || res.Cost.VideosSeen != 0 {
		t.Errorf("past deadline: truncated %v, %d matches, %d videos; want an empty truncated result",
			res.Cost.Truncated, len(res.Matches), res.Cost.VideosSeen)
	}
}

// TestOptionsDeadlineUnreachedIdentical: a view with no deadline, or one
// the search never reaches, returns exactly what Retrieve returns.
func TestOptionsDeadlineUnreachedIdentical(t *testing.T) {
	m := cancelModel(t)
	opts := retrieval.Options{Beam: 4, TopK: 10, AnnotatedOnly: true}
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := cancelQuery()
	want, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Time{{}, time.Now().Add(time.Hour)} {
		opts.Deadline = d
		got, err := eng.WithOptions(opts).Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("deadline %v: result differs from Retrieve:\n got %+v\nwant %+v", d, got, want)
		}
	}
}

// TestNewEngineIgnoresDeadline: a deadline is per request, so one given
// to NewEngine (here long past) bounds neither the engine nor the views
// that inherit its options.
func TestNewEngineIgnoresDeadline(t *testing.T) {
	m := cancelModel(t)
	opts := retrieval.Options{Beam: 4, TopK: 10, AnnotatedOnly: true}
	plain, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Deadline = time.Now().Add(-time.Hour)
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := cancelQuery()
	want, err := plain.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]retrieval.Retriever{"engine": eng, "WithTopK view": eng.WithTopK(10)} {
		got, err := r.RetrieveInto(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost.Truncated || !reflect.DeepEqual(&got, want) {
			t.Errorf("%s built with a past deadline: %+v, want %+v", name, got.Cost, want.Cost)
		}
	}
}

// TestGatherDeadline: Done marks the merged result Truncated once the
// gather's Deadline has passed, as it does for an ended context.
func TestGatherDeadline(t *testing.T) {
	for _, c := range []struct {
		deadline time.Time
		want     bool
	}{
		{time.Time{}, false},
		{time.Now().Add(time.Hour), false},
		{time.Now().Add(-time.Second), true},
	} {
		g := retrieval.Gather{Deadline: c.deadline}
		g.Add(&retrieval.Result{Matches: []retrieval.Match{{States: []int{1}, Score: 1}}}, 0)
		if got := g.Done(context.Background()).Cost.Truncated; got != c.want {
			t.Errorf("deadline %v: Truncated = %v, want %v", c.deadline, got, c.want)
		}
	}
}
