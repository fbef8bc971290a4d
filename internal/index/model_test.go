package index_test

import (
	"math"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/index"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/videomodel"
)

func testModel(t *testing.T, seed uint64) *hmmm.Model {
	t.Helper()
	return retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: seed, Videos: 12, MaxShots: 10, Events: 4, FeatureDim: 5, LearnP12: true,
	})
}

// naiveCandidates recomputes the first-step candidate pool directly
// from B2, the way the exact engine's Step-2 check does.
func naiveCandidates(m *hmmm.Model, concepts []int) []int {
	var out []int
	for v := 0; v < m.NumVideos(); v++ {
		ok := true
		for _, ci := range concepts {
			if m.B2.At(v, ci) == 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

func TestPostingsMatchB2(t *testing.T) {
	m := testModel(t, 1)
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	for ci := 0; ci < m.NumConcepts(); ci++ {
		want := naiveCandidates(m, []int{ci})
		got := ix.Postings(ci, nil)
		if !slices.Equal(got, want) {
			t.Errorf("concept %d postings = %v, want %v", ci, got, want)
		}
		if ix.PostingLen(ci) != len(want) {
			t.Errorf("concept %d PostingLen = %d, want %d", ci, ix.PostingLen(ci), len(want))
		}
	}
}

// TestSimTableMatchesEngine pins the package's Eq. 14 mirror to the
// engine's: the coarse table entry must equal the float32 rounding of
// the maximum engine similarity over the video's annotated states.
func TestSimTableMatchesEngine(t *testing.T) {
	m := testModel(t, 2)
	eng, err := retrieval.NewEngine(m, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	for v := 0; v < m.NumVideos(); v++ {
		lo, hi := m.VideoStates(v)
		for ci := 0; ci < m.NumConcepts(); ci++ {
			ev := videomodel.EventFromIndex(ci)
			want := float32(0)
			for s := lo; s < hi; s++ {
				if !m.States[s].HasEvent(ev) {
					continue
				}
				if sim := float32(eng.Sim(s, ev)); sim > want {
					want = sim
				}
			}
			if got := float32(ix.Sim(v, ci)); got != want {
				t.Fatalf("Sim(%d, %d) = %v, want %v", v, ci, got, want)
			}
		}
	}
}

func TestMaxPi1(t *testing.T) {
	m := testModel(t, 3)
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	for v := 0; v < m.NumVideos(); v++ {
		lo, hi := m.VideoStates(v)
		want := float32(0)
		for s := lo; s < hi; s++ {
			if p := float32(m.Pi1.At(s)); p > want {
				want = p
			}
		}
		if got := float32(ix.MaxPi1(v)); got != want {
			t.Fatalf("MaxPi1(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestCandidatesUnprunedEqualsPool(t *testing.T) {
	m := testModel(t, 4)
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	steps := [][]int{{0}, {1}}
	want := naiveCandidates(m, steps[0])
	for _, limit := range []int{0, len(want), len(want) + 5, 1 << 20} {
		got, scored := ix.Candidates(steps, limit, false)
		if !slices.Equal(got, want) {
			t.Fatalf("limit %d: candidates = %v, want %v", limit, got, want)
		}
		if scored != 0 {
			t.Fatalf("limit %d: scored %d videos on the unpruned path, want 0", limit, scored)
		}
	}
	// all=true scores every video, so the unpruned pool is 0..M-1.
	got, _ := ix.Candidates(steps, 0, true)
	if len(got) != m.NumVideos() {
		t.Fatalf("all-videos pool has %d entries, want %d", len(got), m.NumVideos())
	}
	for v, g := range got {
		if g != v {
			t.Fatalf("all-videos pool[%d] = %d", v, g)
		}
	}
}

func TestCandidatesPrunesByScore(t *testing.T) {
	m := testModel(t, 5)
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	steps := [][]int{{0, 1}, {2}}
	pool := naiveCandidates(m, steps[0])
	if len(pool) < 4 {
		t.Skipf("fixture pool too small (%d)", len(pool))
	}
	limit := len(pool) / 2
	got, scored := ix.Candidates(steps, limit, false)
	if len(got) != limit {
		t.Fatalf("got %d candidates, want %d", len(got), limit)
	}
	if scored != len(pool) {
		t.Fatalf("scored %d, want %d", scored, len(pool))
	}
	if !slices.IsSorted(got) {
		t.Fatalf("candidates %v not ascending", got)
	}
	// Survivors are exactly the limit best-scoring pool members
	// (score desc, then smaller video index).
	type sv struct {
		v     int
		score float64
	}
	ranked := make([]sv, len(pool))
	for i, v := range pool {
		ranked[i] = sv{v, ix.Score(v, steps)}
	}
	slices.SortFunc(ranked, func(a, b sv) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return a.v - b.v
	})
	want := make([]int, limit)
	for i := range want {
		want[i] = ranked[i].v
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("candidates = %v, want top-scored %v", got, want)
	}
}

func TestScoreShape(t *testing.T) {
	m := testModel(t, 6)
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	steps := [][]int{{0}, {1}}
	for v := 0; v < m.NumVideos(); v++ {
		want := ix.PiSim(v, 0) * ix.Edge(v, 0, 1)
		if got := ix.Score(v, steps); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Score(%d) = %v, want %v", v, got, want)
		}
		// Empty steps contribute no factor; leading empties don't shift
		// which step counts as the entry.
		if got := ix.Score(v, [][]int{{}}); got != ix.MaxPi1(v) {
			t.Fatalf("Score with empty step = %v, want maxPi1 %v", got, ix.MaxPi1(v))
		}
		if got := ix.Score(v, [][]int{{}, {1}}); got != ix.PiSim(v, 1) {
			t.Fatalf("Score([[],[1]]) = %v, want PiSim %v", got, ix.PiSim(v, 1))
		}
	}
}

// TestPiSimAndEdgeTables pins the two proxy tables to naive
// recomputations from the model: max Π1·sim over each video's
// c-annotated states, and the max joint A1·sim(target) between each
// annotated concept pair.
func TestPiSimAndEdgeTables(t *testing.T) {
	m := testModel(t, 9)
	eng, err := retrieval.NewEngine(m, retrieval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	c := m.NumConcepts()
	for v := 0; v < m.NumVideos(); v++ {
		lo, hi := m.VideoStates(v)
		for ci := 0; ci < c; ci++ {
			ev := videomodel.EventFromIndex(ci)
			want := float32(0)
			for s := lo; s < hi; s++ {
				if !m.States[s].HasEvent(ev) {
					continue
				}
				if ps := float32(m.Pi1.At(s) * eng.Sim(s, ev)); ps > want {
					want = ps
				}
			}
			if got := float32(ix.PiSim(v, ci)); got != want {
				t.Fatalf("PiSim(%d, %d) = %v, want %v", v, ci, got, want)
			}
		}
		for c1 := 0; c1 < c; c1++ {
			for c2 := 0; c2 < c; c2++ {
				e1, e2 := videomodel.EventFromIndex(c1), videomodel.EventFromIndex(c2)
				want := float32(0)
				for s := lo; s < hi; s++ {
					if !m.States[s].HasEvent(e1) {
						continue
					}
					for u := lo; u < hi; u++ {
						if !m.States[u].HasEvent(e2) {
							continue
						}
						a := m.LocalA[v].At(s-lo, u-lo)
						if a == 0 {
							continue
						}
						if w := float32(a * eng.Sim(u, e2)); w > want {
							want = w
						}
					}
				}
				if got := float32(ix.Edge(v, c1, c2)); got != want {
					t.Fatalf("Edge(%d, %d, %d) = %v, want %v", v, c1, c2, got, want)
				}
			}
		}
	}
	if e := ix.Edge(-1, 0, 0); e == e {
		t.Errorf("Edge out of range = %v, want NaN", e)
	}
	if p := ix.PiSim(0, -1); p == p {
		t.Errorf("PiSim out of range = %v, want NaN", p)
	}
}

func TestBuildDeterministic(t *testing.T) {
	m := testModel(t, 7)
	a := index.Build(m, retrieval.DefaultSimEpsilon)
	b := index.Build(m, retrieval.DefaultSimEpsilon)
	steps := [][]int{{0}, {2}}
	ga, _ := a.Candidates(steps, 3, false)
	gb, _ := b.Candidates(steps, 3, false)
	if !slices.Equal(ga, gb) {
		t.Fatalf("two builds disagree: %v vs %v", ga, gb)
	}
}

func TestMemoryBytes(t *testing.T) {
	// A deeper-than-default fixture: the edge table is videos×concepts²
	// while the dense sim table is states×concepts×8, so the size
	// comparison is only meaningful with a realistic number of states
	// per video (archives have tens to hundreds; the toy fixture ~4).
	m := retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: 8, Videos: 8, MaxShots: 60, Events: 4, FeatureDim: 5, LearnP12: true,
	})
	ix := index.Build(m, retrieval.DefaultSimEpsilon)
	if got := ix.MemoryBytes(); got <= 0 {
		t.Fatalf("MemoryBytes = %d", got)
	}
	// The whole index must be far smaller than the engine's dense
	// NumStates × NumConcepts float64 similarity table.
	dense := m.NumStates() * m.NumConcepts() * 8
	if got := ix.MemoryBytes(); got >= dense {
		t.Fatalf("index %dB not smaller than dense sim table %dB", got, dense)
	}
}
