package retrieval

import (
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/videomodel"
)

// TestEffectiveParallelFallsBackOnSmallWork checks the small-work
// heuristic: on the equivalence corpus (well under
// DefaultMinParallelWork edge evaluations for an annotated two-step
// query), a Parallel=4 engine must resolve to the serial loop, while
// MinParallelWork=-1 must force the full requested fan-out and a tiny
// explicit threshold must re-enable it.
func TestEffectiveParallelFallsBackOnSmallWork(t *testing.T) {
	m := equivModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	steps := q.steps()

	eng, err := NewEngine(m, Options{TopK: 5, Beam: 4, AnnotatedOnly: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	order := eng.videoOrder(steps, nil, &Cost{})
	if len(order) < 4 {
		t.Fatalf("fixture too small: only %d candidate videos", len(order))
	}
	work := eng.estimateParallelWork(order, steps)
	if work <= 0 {
		t.Fatalf("estimateParallelWork = %d, want > 0", work)
	}
	if work >= DefaultMinParallelWork {
		t.Skipf("fixture work estimate %d no longer below threshold %d; pick a smaller corpus",
			work, DefaultMinParallelWork)
	}
	if got := eng.effectiveParallel(order, steps); got != 1 {
		t.Errorf("effectiveParallel on small work = %d, want 1 (estimate %d)", got, work)
	}

	forced := eng.WithOptions(Options{TopK: 5, Beam: 4, AnnotatedOnly: true, Parallel: 4, MinParallelWork: -1})
	if got := forced.effectiveParallel(order, steps); got != 4 {
		t.Errorf("effectiveParallel with heuristic disabled = %d, want 4", got)
	}

	// A threshold small enough that each of the 4 workers clears it.
	low := eng.WithOptions(Options{TopK: 5, Beam: 4, AnnotatedOnly: true, Parallel: 4,
		MinParallelWork: work / 4})
	if got := low.effectiveParallel(order, steps); got != 4 {
		t.Errorf("effectiveParallel with low threshold = %d, want 4 (estimate %d)", got, work)
	}

	// Between the extremes the count scales with the estimate.
	mid := eng.WithOptions(Options{TopK: 5, Beam: 4, AnnotatedOnly: true, Parallel: 4,
		MinParallelWork: work / 2})
	if got := mid.effectiveParallel(order, steps); got != 2 {
		t.Errorf("effectiveParallel with half-work threshold = %d, want 2 (estimate %d)", got, work)
	}
}

// TestFallbackKeepsResultsIdentical confirms the safety property that
// makes the heuristic free to apply: whatever worker count
// effectiveParallel picks under the default threshold, the results
// equal both a pure-serial run and a forced-parallel run.
func TestFallbackKeepsResultsIdentical(t *testing.T) {
	m := equivModel(t)
	for qi, q := range equivQueries(m) {
		base := Options{TopK: 5, Beam: 4, CrossVideo: true, AnnotatedOnly: true}
		serial := mustRetrieve(t, m, base, q)

		auto := base
		auto.Parallel = 4 // default MinParallelWork governs
		requireEqualResults(t, serial, mustRetrieve(t, m, auto, q))

		forced := base
		forced.Parallel = 4
		forced.MinParallelWork = -1
		requireEqualResults(t, serial, mustRetrieve(t, m, forced, q))

		_ = qi
	}
}

// TestCacheBuildBitIdenticalAcrossWorkerCounts is the satellite
// determinism check for the engine's derived caches: the dense Eq. 14
// similarity table and the inverted event index must be byte-for-byte
// identical whether built serially or with any worker count.
func TestCacheBuildBitIdenticalAcrossWorkerCounts(t *testing.T) {
	m := equivModel(t)
	ref, err := NewEngine(m, Options{BuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 9} {
		eng, err := NewEngine(m, Options{BuildWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.shared.sim, eng.shared.sim) {
			t.Errorf("BuildWorkers=%d: similarity table differs from serial build", workers)
		}
		if !reflect.DeepEqual(ref.shared.postings, eng.shared.postings) || !reflect.DeepEqual(ref.shared.postOff, eng.shared.postOff) ||
			!reflect.DeepEqual(ref.shared.startMS, eng.shared.startMS) {
			t.Errorf("BuildWorkers=%d: event index differs from serial build", workers)
		}
	}
}
