package retrieval

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// equivSuite caches a moderate synthetic corpus for the equivalence
// tests: large enough that beams fill, cross-video hops and early
// stopping actually trigger, small enough for -race runs.
var equivSuite struct {
	once  sync.Once
	model *hmmm.Model
	err   error
}

func equivModel(t *testing.T) *hmmm.Model {
	t.Helper()
	equivSuite.once.Do(func() {
		corpus, err := dataset.Build(dataset.Config{
			Seed: 7, Videos: 12, Shots: 600, Annotated: 96, Fast: true,
		})
		if err != nil {
			equivSuite.err = err
			return
		}
		equivSuite.model, equivSuite.err = hmmm.Build(
			corpus.Archive, corpus.Features, hmmm.BuildOptions{LearnP12: true})
	})
	if equivSuite.err != nil {
		t.Fatal(equivSuite.err)
	}
	return equivSuite.model
}

func equivQueries(m *hmmm.Model) []Query {
	qs := []Query{
		NewQuery(videomodel.EventGoal, videomodel.EventFreeKick),
		NewQuery(videomodel.EventCornerKick, videomodel.EventGoal, videomodel.EventFoul),
	}
	scoped := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	scoped.Scope = &Scope{Video: m.VideoIDs[0]}
	qs = append(qs, scoped)
	return qs
}

// mustRetrieve builds an engine and runs the query.
func mustRetrieve(t *testing.T, m *hmmm.Model, opts Options, q Query) *Result {
	t.Helper()
	eng, err := NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireEqualResults(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Matches) != len(got.Matches) {
		t.Fatalf("match count: want %d, got %d", len(want.Matches), len(got.Matches))
	}
	for i := range want.Matches {
		w, g := want.Matches[i], got.Matches[i]
		if w.Score != g.Score {
			t.Fatalf("match %d score: want %v, got %v", i, w.Score, g.Score)
		}
		if !reflect.DeepEqual(w.States, g.States) || !reflect.DeepEqual(w.Shots, g.Shots) ||
			!reflect.DeepEqual(w.Videos, g.Videos) || !reflect.DeepEqual(w.Weights, g.Weights) {
			t.Fatalf("match %d differs:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
	if want.Cost != got.Cost {
		t.Fatalf("cost: want %+v, got %+v", want.Cost, got.Cost)
	}
}

// TestEarlyStopStopsEarly checks StopAfterMatches on the paper's
// goal -> free-kick query: the early-stop run still returns matches, and
// for at least one K it expands fewer videos than the Step-2 candidate
// count — the videos an exhaustive search expands. (Certified pruning
// may expand fewer still, so the exhaustive run is no longer the
// reference.)
func TestEarlyStopStopsEarly(t *testing.T) {
	m := equivModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	triggered := false
	for _, topK := range []int{1, 2, 3} {
		opts := Options{TopK: topK, Beam: 4, AnnotatedOnly: true, StopAfterMatches: true}
		eng, err := NewEngine(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		stopped, err := eng.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(stopped.Matches) == 0 {
			t.Fatal("fixture query returned no matches")
		}
		if eng.Step2Candidates(q) > stopped.Cost.VideosSeen {
			triggered = true
		}
	}
	if !triggered {
		t.Error("early stop never triggered on this corpus")
	}
}

// TestEarlyStopEmitsTrace checks the TraceEarlyStop event fires exactly
// once when the threshold is crossed.
func TestEarlyStopEmitsTrace(t *testing.T) {
	m := equivModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	tracer := &CollectTracer{}
	opts := Options{TopK: 1, Beam: 4, AnnotatedOnly: true, StopAfterMatches: true, Tracer: tracer}
	res := mustRetrieve(t, m, opts, q)
	if res.Cost.VideosSeen == m.NumVideos() {
		t.Skip("early stop did not trigger on this corpus")
	}
	if n := tracer.Count(TraceEarlyStop); n != 1 {
		t.Errorf("%d early-stop events, want 1", n)
	}
}

// TestCacheBuildBitIdenticalAcrossWorkerCounts is the satellite
// determinism check for the engine's derived caches: the dense Eq. 14
// similarity table, the inverted event index and the bound tables must
// be byte-for-byte identical whether built serially or under any
// GOMAXPROCS.
func TestCacheBuildBitIdenticalAcrossWorkerCounts(t *testing.T) {
	m := equivModel(t)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var ref *Engine
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		eng, err := NewEngine(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = eng
			continue
		}
		if !reflect.DeepEqual(ref.shared.sim, eng.shared.sim) {
			t.Errorf("GOMAXPROCS=%d: similarity table differs from serial build", procs)
		}
		if !reflect.DeepEqual(ref.shared.postings, eng.shared.postings) || !reflect.DeepEqual(ref.shared.postOff, eng.shared.postOff) ||
			!reflect.DeepEqual(ref.shared.startMS, eng.shared.startMS) {
			t.Errorf("GOMAXPROCS=%d: event index differs from serial build", procs)
		}
		if ref.shared.bound == nil || !reflect.DeepEqual(ref.shared.bound, eng.shared.bound) {
			t.Errorf("GOMAXPROCS=%d: bound tables differ from serial build", procs)
		}
	}
}

// TestSerialInvariantMatrix pins the properties of the one search loop
// across beams, cross-video settings, early stopping and scopes on a
// corpus where beams fill, hops happen and early stop triggers: a repeat
// query on the same engine (order-memo hit, recycled arena), a NoSimCache
// view and a Background-context call all return the cold result bit for
// bit, and the result is a ranked, untruncated top-K. Every mode expands
// at most the Step-2 candidate count (one video under a video scope), the
// never-pruning reference expands exactly that many without early stop,
// and the ranking equals the reference's whenever early stop is off.
func TestSerialInvariantMatrix(t *testing.T) {
	m := equivModel(t)
	for _, beam := range []int{1, 4, 16} {
		for _, cross := range []bool{false, true} {
			for _, stop := range []bool{false, true} {
				for qi, q := range equivQueries(m) {
					name := fmt.Sprintf("beam=%d/cross=%v/stop=%v/q=%d", beam, cross, stop, qi)
					t.Run(name, func(t *testing.T) {
						opts := Options{
							TopK: 5, Beam: beam, CrossVideo: cross,
							AnnotatedOnly: true, StopAfterMatches: stop,
						}
						eng, err := NewEngine(m, opts)
						if err != nil {
							t.Fatal(err)
						}
						cold, err := eng.Retrieve(q)
						if err != nil {
							t.Fatal(err)
						}
						warm, err := eng.Retrieve(q)
						if err != nil {
							t.Fatal(err)
						}
						requireEqualResults(t, cold, warm)
						ctxed, err := eng.RetrieveContext(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						requireEqualResults(t, cold, ctxed)
						direct := opts
						direct.NoSimCache = true
						requireEqualResults(t, cold, mustRetrieve(t, m, direct, q))

						if cold.Cost.Truncated {
							t.Error("uncancelled retrieval marked truncated")
						}
						if len(cold.Matches) > opts.TopK {
							t.Errorf("%d matches, TopK %d", len(cold.Matches), opts.TopK)
						}
						for i := 1; i < len(cold.Matches); i++ {
							if cold.Matches[i].Score > cold.Matches[i-1].Score {
								t.Fatalf("match %d outranks match %d", i, i-1)
							}
						}
						if q.Scope != nil {
							for i, mt := range cold.Matches {
								if mt.Videos[0] != q.Scope.Video {
									t.Errorf("match %d starts in video %v outside scope %v", i, mt.Videos[0], q.Scope.Video)
								}
							}
						}
						limit := eng.Step2Candidates(q)
						if q.Scope != nil {
							limit = 1
						}
						if cold.Cost.VideosSeen > limit {
							t.Errorf("expanded %d videos, Step-2 candidate count %d", cold.Cost.VideosSeen, limit)
						}
						if !stop {
							ref, err := eng.Unpruned().Retrieve(q)
							if err != nil {
								t.Fatal(err)
							}
							if ref.Cost.VideosSeen != limit {
								t.Errorf("reference expanded %d videos, Step-2 candidate count %d", ref.Cost.VideosSeen, limit)
							}
							ref.Cost = cold.Cost // only the work may differ
							requireEqualResults(t, ref, cold)
						}
					})
				}
			}
		}
	}
}

// TestSimilarityModeRepeatable repeats the cold/warm/NoSimCache identity
// with the unannotated similarity fallback active (AnnotatedOnly off),
// which exercises the dense candidate scan and far more lattice work.
func TestSimilarityModeRepeatable(t *testing.T) {
	m := equivModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	opts := Options{TopK: 5, Beam: 4, CrossVideo: true}
	eng, err := NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Matches) == 0 {
		t.Fatal("fixture query returned no matches")
	}
	warm, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, cold, warm)
	direct := opts
	direct.NoSimCache = true
	requireEqualResults(t, cold, mustRetrieve(t, m, direct, q))
}

// TestSharedEngineConcurrentMatchesSerial runs the equivalence queries
// from several goroutines against one engine — how the server uses it,
// sharing the order memo, similarity and bound tables and arena pool —
// and checks every result against a serial run, with the greedy order
// (CrossVideo) and with certified pruning. Under -race this covers the
// shared caches' concurrent reads and the memo's and pool's writes.
func TestSharedEngineConcurrentMatchesSerial(t *testing.T) {
	for _, cross := range []bool{true, false} {
		t.Run(fmt.Sprintf("cross=%v", cross), func(t *testing.T) {
			concurrentMatchesSerial(t, Options{TopK: 5, Beam: 4, CrossVideo: cross, AnnotatedOnly: true})
		})
	}
}

func concurrentMatchesSerial(t *testing.T, opts Options) {
	m := equivModel(t)
	qs := equivQueries(m)
	want := make([]*Result, len(qs))
	for i, q := range qs {
		want[i] = mustRetrieve(t, m, opts, q)
	}
	eng, err := NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 4, 3
	got := make([][]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range qs {
					// Stagger the start so goroutines hit different queries.
					res, err := eng.Retrieve(qs[(i+g)%len(qs)])
					if err != nil {
						errs[g] = err
						return
					}
					got[g] = append(got[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for k, res := range got[g] {
			requireEqualResults(t, want[(k%len(qs)+g)%len(qs)], res)
		}
	}
}
