// Layout invariants of the engine's derived caches, over every fixture
// family the tree serves from: whole models of each domain, shard.Split
// partial models, and a live.Delta partial model.
package retrieval_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/videomodel"
)

// layoutModels returns labelled fixture models: whole and partial.
func layoutModels(t *testing.T) map[string]*hmmm.Model {
	t.Helper()
	models := make(map[string]*hmmm.Model)
	for _, d := range retrievaltest.Domains() {
		for seed := uint64(1); seed <= 3; seed++ {
			m := retrievaltest.RandomModel(t, retrievaltest.Config{
				Seed: seed, Videos: int(seed) + 4, MaxShots: 10,
				Events: d.NumEvents(), Domain: d, LearnP12: seed%2 == 0,
			})
			models[fmt.Sprintf("%s/seed=%d", d.Name, seed)] = m
			for _, k := range []int{2, 3} {
				shards, err := shard.Split(m, k)
				if err != nil {
					t.Fatal(err)
				}
				for si, s := range shards {
					models[fmt.Sprintf("%s/seed=%d/split=%d/shard=%d", d.Name, seed, k, si)] = s.Model
				}
			}
		}
	}
	var records []live.Record
	evs := videomodel.AllEvents()
	for i := 0; i < 4; i++ {
		rec := live.Record{Video: videomodel.VideoID(100 + i), Name: fmt.Sprintf("live-%d", i)}
		for si := 0; si < 5; si++ {
			sr := live.ShotRecord{
				ID: videomodel.ShotID(1000 + 5*i + si), Index: si,
				StartMS: si * 3000, EndMS: (si + 1) * 3000,
			}
			if si != 2 {
				sr.Events = []videomodel.Event{evs[(i+si)%len(evs)]}
				sr.Features = []float64{float64(i) / 4, 0.5, float64(si) / 5, 0.25}
			}
			rec.Shots = append(rec.Shots, sr)
		}
		records = append(records, rec)
	}
	delta, err := live.NewDelta(records, 42, 1, hmmm.BuildOptions{LearnP12: true}, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	models["live.Delta"] = delta.Model
	return models
}

// TestSimTableBitIdenticalEverywhere checks every (state, concept) entry
// of the concept-major table against the uncached Eq. 14 kernel of an
// engine built without the table.
func TestSimTableBitIdenticalEverywhere(t *testing.T) {
	for label, m := range layoutModels(t) {
		cached, err := retrieval.NewEngine(m, retrieval.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		direct, err := retrieval.NewEngine(m, retrieval.Options{NoSimCache: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !cached.HasSimTable() || direct.HasSimTable() {
			t.Fatalf("%s: table built %v with the cache and %v without it", label, cached.HasSimTable(), direct.HasSimTable())
		}
		for s := 0; s < m.NumStates(); s++ {
			for ci := 0; ci < m.NumConcepts(); ci++ {
				ev := videomodel.EventFromIndex(ci)
				if c, d := cached.Sim(s, ev), direct.Sim(s, ev); c != d {
					t.Fatalf("%s: sim(%d, %v): table %v != kernel %v", label, s, ev, c, d)
				}
			}
		}
	}
}

// TestIndexLayoutProperties checks the CSR postings against the naive
// per-video per-concept ascending lists, the packed start-time column
// against the states, and the s − lo == LocalIdx identity the lattice
// derives local indices from, with the index built under GOMAXPROCS 1,
// 2, 3 and NumCPU.
func TestIndexLayoutProperties(t *testing.T) {
	models := layoutModels(t)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for label, m := range models {
			label = fmt.Sprintf("%s GOMAXPROCS=%d", label, procs)
			eng, err := retrieval.NewEngine(m, retrieval.Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			startMS := eng.StartMSColumn()
			if len(startMS) != m.NumStates() || &startMS[0] != &m.StartTimes()[0] {
				t.Fatalf("%s: start-time column has %d entries for %d states, or is not the model's", label, len(startMS), m.NumStates())
			}
			for vi := 0; vi < m.NumVideos(); vi++ {
				lo, hi := m.VideoStates(vi)
				want := make([][]int32, m.NumConcepts())
				for s := lo; s < hi; s++ {
					st := &m.States[s]
					if m.VideoOf(s) != vi {
						t.Fatalf("%s: state %d has video %d, want %d", label, s, m.VideoOf(s), vi)
					}
					for _, ev := range st.Events {
						want[ev.Index()] = append(want[ev.Index()], int32(s))
					}
				}
				for ci := range want {
					if got := eng.Posting(vi, ci); !slices.Equal(got, want[ci]) {
						t.Fatalf("%s: posting(video %d, concept %d) = %v, want %v", label, vi, ci, got, want[ci])
					}
				}
			}
		}
	}
}
