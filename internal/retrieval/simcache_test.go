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

// TestWithOptionsSharesCache checks that per-query option tweaks reuse
// the derived caches and that cache-affecting options force a rebuild.
func TestWithOptionsSharesCache(t *testing.T) {
	m := equivModel(t)
	eng, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tuned := eng.WithOptions(Options{TopK: 3, Beam: 1, CrossVideo: true}); tuned.shared != eng.shared {
		t.Error("per-query tuning rebuilt the shared caches")
	}
	if nc := eng.WithOptions(Options{NoSimCache: true}); nc.shared == eng.shared || nc.shared.sim != nil {
		t.Error("NoSimCache view kept the cached table")
	}
}
