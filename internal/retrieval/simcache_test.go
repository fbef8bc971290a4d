package retrieval

import (
	"testing"

	"github.com/videodb/hmmm/internal/videomodel"
)

// TestSimCacheBitIdentical checks that every cached sim(s, e) value equals
// the direct Eq. 14 evaluation bit for bit, and that full retrievals under
// the two modes return identical results.
func TestSimCacheBitIdentical(t *testing.T) {
	m := equivModel(t)
	cached, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewEngine(m, Options{AnnotatedOnly: true, NoSimCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached.shared.sim == nil {
		t.Fatal("cache engine has no similarity table")
	}
	if direct.shared.sim != nil {
		t.Fatal("NoSimCache engine built a similarity table")
	}
	for s := 0; s < m.NumStates(); s++ {
		for ci := 0; ci < m.NumConcepts(); ci++ {
			ev := videomodel.EventFromIndex(ci)
			if c, d := cached.Sim(s, ev), direct.Sim(s, ev); c != d {
				t.Fatalf("sim(%d, %v): cached %v != direct %v", s, ev, c, d)
			}
		}
	}
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	cres, err := cached.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := direct.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, cres, dres)
}

// TestWithOptionsSharesCache checks that every view shares the engine's
// derived caches: per-query tuning, a NoSimCache toggle (the view keeps
// the engine's table, or its lack of one) and a coarse budget turned on
// or off (the view keeps the engine's index, or its lack of one).
func TestWithOptionsSharesCache(t *testing.T) {
	m := equivModel(t)
	eng, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewEngine(m, Options{NoSimCache: true})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := NewEngine(m, Options{CoarseCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	if eng.shared.sim == nil || bare.shared.sim != nil || eng.shared.coarse != nil || coarse.shared.coarse == nil {
		t.Fatal("NewEngine built the wrong caches for its options")
	}
	for _, tc := range []struct {
		label string
		e     *Engine
		opts  Options
	}{
		{"tuning", eng, Options{TopK: 3, Beam: 1, CrossVideo: true}},
		{"NoSimCache on", eng, Options{NoSimCache: true}},
		{"NoSimCache off", bare, Options{}},
		{"coarse on", eng, Options{CoarseCandidates: 4}},
		{"coarse off", coarse, Options{}},
		{"coarse budget", coarse, Options{CoarseCandidates: 9}},
	} {
		v := tc.e.WithOptions(tc.opts)
		if v.shared != tc.e.shared {
			t.Errorf("%s: the view built its own caches", tc.label)
		}
		if v.opts.NoSimCache != tc.e.opts.NoSimCache {
			t.Errorf("%s: the view's NoSimCache is %v, the engine's %v", tc.label, v.opts.NoSimCache, tc.e.opts.NoSimCache)
		}
	}
}
