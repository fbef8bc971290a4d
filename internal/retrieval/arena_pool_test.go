package retrieval

import (
	"runtime"
	"testing"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/videomodel"
)

// TestArenaPoolBounded pins the free list's capacity behavior: checkouts
// beyond the cap allocate (counted), releases beyond the cap drop
// (counted), and the in-use gauge balances back to zero.
func TestArenaPoolBounded(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	e, err := NewEngine(fixtureModel(t), Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	n := scratchArenas() + 2
	ars := make([]*arena, n)
	for i := range ars {
		ars[i] = e.getArena()
	}
	if got := met.ArenaInUse.Value(); got != int64(n) {
		t.Errorf("in-use = %d after %d checkouts, want %d", got, n, n)
	}
	if got := met.ArenaAlloc.Value(); got != uint64(n) {
		t.Errorf("alloc = %d from an empty pool, want %d", got, n)
	}
	for _, ar := range ars {
		e.putArena(ar)
	}
	if got := met.ArenaDrop.Value(); got != 2 {
		t.Errorf("drop = %d releasing cap+2, want 2", got)
	}
	if got := met.ArenaInUse.Value(); got != 0 {
		t.Errorf("in-use = %d after full release, want 0", got)
	}
	a, b := e.getArena(), e.getArena()
	if got := met.ArenaReuse.Value(); got != 2 {
		t.Errorf("reuse = %d from a full pool, want 2", got)
	}
	e.putArena(a)
	e.putArena(b)
	if got := met.ArenaDrop.Value(); got != 2 {
		t.Errorf("drop grew to %d on in-cap releases, want 2", got)
	}
}

// TestArenaPoolRecyclesAcrossRetrievals: after a warm-up query, repeated
// serial retrievals draw scratch from the pool instead of allocating,
// and every checkout is returned.
func TestArenaPoolRecyclesAcrossRetrievals(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	e, err := NewEngine(fixtureModel(t), Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(videomodel.EventFreeKick, videomodel.EventGoal)
	for i := 0; i < 5; i++ {
		if _, err := e.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.ArenaAlloc.Value(); got != 1 {
		t.Errorf("alloc = %d over 5 serial retrievals, want 1 (first only)", got)
	}
	if got := met.ArenaReuse.Value(); got != 4 {
		t.Errorf("reuse = %d, want 4", got)
	}
	if got := met.ArenaInUse.Value(); got != 0 {
		t.Errorf("in-use = %d after retrievals finished, want 0", got)
	}
	if got := met.ArenaDrop.Value(); got != 0 {
		t.Errorf("drop = %d with concurrency 1, want 0", got)
	}
}

// TestDefaultScratchArenas: the pool cap is two arenas per CPU, floor 4.
func TestDefaultScratchArenas(t *testing.T) {
	if n := scratchArenas(); n < 4 || n < 2*runtime.GOMAXPROCS(0) {
		t.Errorf("scratchArenas() = %d, want max(4, 2×GOMAXPROCS)", n)
	}
	e, err := NewEngine(fixtureModel(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := cap(e.shared.arenas); c != scratchArenas() {
		t.Errorf("pool cap = %d, want %d", c, scratchArenas())
	}
}

// TestEstimateCost pins the admission-lane cost estimate: deterministic,
// monotone in pattern length, smaller under a single-video scope, and
// much larger when a step must fall back to scanning unannotated states.
func TestEstimateCost(t *testing.T) {
	m := fixtureModel(t)
	e, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	one := NewQuery(videomodel.EventGoal)
	two := NewQuery(videomodel.EventFreeKick, videomodel.EventGoal)
	c1, c2 := e.EstimateCost(one), e.EstimateCost(two)
	if c1 <= 0 || c2 <= 0 {
		t.Fatalf("positive costs expected, got %d and %d", c1, c2)
	}
	if c2 <= c1 {
		t.Errorf("two-step cost %d not above one-step cost %d", c2, c1)
	}
	for i := 0; i < 3; i++ {
		if e.EstimateCost(two) != c2 {
			t.Fatal("EstimateCost is not deterministic")
		}
	}

	scoped := two
	scoped.Scope = &Scope{Video: m.VideoIDs[0]}
	if cs := e.EstimateCost(scoped); cs <= 0 || cs >= c2 {
		t.Errorf("scoped cost %d, want in (0, %d)", cs, c2)
	}
	missing := two
	missing.Scope = &Scope{Video: 999}
	if cm := e.EstimateCost(missing); cm != 0 {
		t.Errorf("cost for unknown scoped video = %d, want 0", cm)
	}
	if c := e.EstimateCost(Query{}); c != 0 {
		t.Errorf("cost for empty query = %d, want 0", c)
	}

	// Similarity fallback: without AnnotatedOnly, a concept absent from
	// the annotations makes every state compete, dominating the estimate.
	fb := e.WithOptions(Options{AnnotatedOnly: false})
	rare := NewQuery(videomodel.EventRedCard)
	if cr := fb.EstimateCost(rare); cr <= fb.EstimateCost(one) {
		t.Errorf("fallback cost %d not above annotated cost %d",
			cr, fb.EstimateCost(one))
	}
}

// TestEstimateCostSumsPerVideo pins the estimate's decomposition: the
// archive-wide cost is exactly the sum of the single-video scoped costs,
// in both annotated and similarity-fallback mode.
func TestEstimateCostSumsPerVideo(t *testing.T) {
	m := equivModel(t)
	for _, annotatedOnly := range []bool{true, false} {
		e, err := NewEngine(m, Options{AnnotatedOnly: annotatedOnly, Beam: 4})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range equivQueries(m) {
			q.Scope = nil
			sum := 0
			for _, vid := range m.VideoIDs {
				scoped := q
				scoped.Scope = &Scope{Video: vid}
				sum += e.EstimateCost(scoped)
			}
			if got := e.EstimateCost(q); got != sum || got <= 0 {
				t.Errorf("annotated=%v q=%d: archive cost %d, per-video sum %d",
					annotatedOnly, qi, got, sum)
			}
		}
	}
}
