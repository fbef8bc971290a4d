// Differential tests of the Step-2 order memo: an engine that answers
// from the memo must be indistinguishable — matches and Cost — from one
// that walks Π2/A2 on every query. A freshly built engine has an empty
// memo, so its first query is the bypassed reference.
package retrieval_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/videomodel"
)

// memoQueries extends the shared corpora with the first-step shapes the
// memo key distinguishes: a conjunction first step, its permutation, and
// a window-scoped query.
func memoQueries(m *hmmm.Model) []retrieval.Query {
	qs := append(retrievaltest.Queries(m), retrievaltest.NegationQueries(m)...)
	present := retrievaltest.PresentEvents(m)
	if len(present) < 2 {
		return qs
	}
	e0, e1 := present[0], present[1]
	windowed := retrieval.NewQuery(e0, e1)
	windowed.Scope = &retrieval.Scope{FromMS: 1000, ToMS: 20000}
	return append(qs,
		retrieval.Query{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0, e1}},
			{Events: []videomodel.Event{e1}},
		}},
		retrieval.Query{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e1, e0}},
		}},
		windowed,
	)
}

// requireSameResult is bit-identity of the whole result: ranking and
// every Cost counter.
func requireSameResult(t *testing.T, label string, want, got *retrieval.Result) {
	t.Helper()
	retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
	if want.Cost != got.Cost {
		t.Fatalf("%s: cost %+v, want %+v", label, got.Cost, want.Cost)
	}
}

func mustRetrieve(t *testing.T, eng *retrieval.Engine, q retrieval.Query) *retrieval.Result {
	t.Helper()
	res, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOrderMemoBitIdenticalToBypass(t *testing.T) {
	// Engines derived from one base share its memo; each is compared with
	// a fresh engine under the same options.
	variants := []retrieval.Options{
		{TopK: 10, Beam: 10},
		{TopK: 3, Beam: 1, CrossVideo: true},
		{TopK: 2, StopAfterMatches: true},
	}
	for _, d := range retrievaltest.Domains() {
		for seed := uint64(1); seed <= 3; seed++ {
			m := retrievaltest.RandomModel(t, retrievaltest.Config{
				Seed: seed, Videos: int(seed) + 5, MaxShots: 10,
				Events: d.NumEvents(), Domain: d, LearnP12: seed%2 == 0,
			})
			for _, annotatedOnly := range []bool{true, false} {
				base, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: annotatedOnly})
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range memoQueries(m) {
					for vi, opts := range variants {
						opts.AnnotatedOnly = annotatedOnly
						fresh, err := retrieval.NewEngine(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						want := mustRetrieve(t, fresh, q)
						warm := base.WithOptions(opts)
						// Variant 0 misses; every later query of the same
						// first step, on any derived engine, hits.
						for pass := 0; pass < 3; pass++ {
							label := fmt.Sprintf("domain=%s seed=%d annotated=%v q=%d variant=%d pass=%d",
								d.Name, seed, annotatedOnly, qi, vi, pass)
							requireSameResult(t, label, want, mustRetrieve(t, warm, q))
						}
					}
				}
			}
		}
	}
}

// visitOrder returns the videos a retrieval entered, in order, in a
// greedy-order mode: CrossVideo never prunes, so every Step-2 candidate
// is entered in the Π2/A2 walk's order.
func visitOrder(t *testing.T, eng *retrieval.Engine, q retrieval.Query) []int {
	t.Helper()
	var tr retrieval.CollectTracer
	opts := retrieval.Options{AnnotatedOnly: true, CrossVideo: true, Tracer: &tr}
	mustRetrieve(t, eng.WithOptions(opts), q)
	var order []int
	for _, ev := range tr.Events() {
		if ev.Kind == retrieval.TraceVideoEnter {
			order = append(order, ev.Video)
		}
	}
	return order
}

// TestOrderMemoFollowsRetrainedModel pins the memo under build → serve →
// replace: retraining returns a new model, so the served engine's memoized
// order and its answers stay exactly as before (Cost included), while a
// fresh engine over the retrained model walks the new Π2/A2 order — the
// retrained favourite first — and in this never-pruning mode matches its
// Unpruned twin, Cost included.
func TestOrderMemoFollowsRetrainedModel(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 11, Videos: 9, MaxShots: 10, Events: 2})
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	q := retrieval.NewQuery(retrievaltest.PresentEvents(m)[0])
	before := visitOrder(t, eng, q)
	if len(before) < 3 {
		t.Fatalf("fixture visits only %d videos", len(before))
	}
	if again := visitOrder(t, eng, q); !reflect.DeepEqual(before, again) {
		t.Fatalf("memo hit changed the order: %v then %v", before, again)
	}
	served := mustRetrieve(t, eng, q)

	// Positive feedback on a shot of the last-visited video makes it the
	// Π2 favourite.
	last := before[len(before)-1]
	lo, _ := m.VideoStates(last)
	log := feedback.NewLog()
	for i := 0; i < 3; i++ {
		if err := log.MarkPositive(m, []int{lo}); err != nil {
			t.Fatal(err)
		}
	}
	next, err := feedback.NewTrainer(1).Retrain(m, log)
	if err != nil {
		t.Fatal(err)
	}
	if got := visitOrder(t, eng, q); !reflect.DeepEqual(got, before) {
		t.Fatalf("served engine's order moved after a retrain: %v, was %v", got, before)
	}
	requireSameResult(t, "served engine after retrain", served, mustRetrieve(t, eng, q))

	fresh, err := retrieval.NewEngine(next, retrieval.Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	after := visitOrder(t, fresh, q)
	if after[0] != last || reflect.DeepEqual(after, before) {
		t.Fatalf("retrain did not move video %d to the front: before %v, after %v", last, before, after)
	}
	if again := visitOrder(t, fresh, q); !reflect.DeepEqual(after, again) {
		t.Fatalf("memo hit changed the retrained order: %v then %v", after, again)
	}
	cross := retrieval.Options{AnnotatedOnly: true, CrossVideo: true}
	requireSameResult(t, "retrained, cross-video",
		mustRetrieve(t, fresh.Unpruned().WithOptions(cross), q), mustRetrieve(t, fresh.WithOptions(cross), q))
}
