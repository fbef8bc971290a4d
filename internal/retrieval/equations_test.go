package retrieval_test

import (
	"math"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// ledgerModel is the equation ledger's 3-video / 8-shot fixture (see
// hmmm's equations_test.go), with one annotation added: shot 6 is a
// foul as well as a free kick, so foul's B1′ row has a zero feature.
//
//	video 1: shot 0 goal             [2, 10]   (state 0)
//	         shot 1 —
//	         shot 2 free kick        [6, 30]   (state 1)
//	video 2: shot 3 goal + fk        [4, 20]   (state 2)
//	         shot 4 corner           [10, 50]  (state 3)
//	         shot 5 —
//	video 3: shot 6 free kick + foul [8, 10]   (state 4)
//	         shot 7 corner           [2, 40]   (state 5)
func ledgerModel(t *testing.T) *hmmm.Model {
	t.Helper()
	goal, fk, corner, foul := videomodel.EventGoal, videomodel.EventFreeKick, videomodel.EventCornerKick, videomodel.EventFoul
	shots := [][]struct {
		events []videomodel.Event
		raw    []float64
	}{
		{{[]videomodel.Event{goal}, []float64{2, 10}}, {}, {[]videomodel.Event{fk}, []float64{6, 30}}},
		{{[]videomodel.Event{goal, fk}, []float64{4, 20}}, {[]videomodel.Event{corner}, []float64{10, 50}}, {}},
		{{[]videomodel.Event{fk, foul}, []float64{8, 10}}, {[]videomodel.Event{corner}, []float64{2, 40}}},
	}
	var videos []*videomodel.Video
	feats := map[videomodel.ShotID][]float64{}
	id := videomodel.ShotID(0)
	for vi, plan := range shots {
		v := &videomodel.Video{ID: videomodel.VideoID(vi + 1), Name: "ledger"}
		for si, s := range plan {
			v.Shots = append(v.Shots, &videomodel.Shot{
				ID: id, Video: v.ID, Index: si, StartMS: si * 1000, EndMS: (si + 1) * 1000, Events: s.events,
			})
			if s.raw != nil {
				feats[id] = s.raw
			}
			id++
		}
		videos = append(videos, v)
	}
	a, err := videomodel.NewArchive(videos)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(a, feats, hmmm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEquationFourteenLiteral works Eq. 14 by hand on the ledger
// fixture, for every state and concept:
//
//	sim(s, e) = Σ_f P1,2(e, f) · (1 − |B1(s, f) − B1′(e, f)|) / B1′(e, f)
//
// over the features f whose mean B1′(e, f) exceeds DefaultSimEpsilon
// (the paper's "non-zero features"; the floor also guards the
// division). The model is built without P1,2 learning, so every
// P1,2(e, f) is the Eq. 7 value 1/K = 0.5. The Eq. 3 B1 rows are
// s0 [0, 0], s1 [0.5, 0.5], s2 [0.25, 0.25], s3 [1, 1], s4 [0.75, 0],
// s5 [0, 0.75]; the Eq. 11 B1′ rows are
//
//	goal   (s0, s2):     [0.125, 0.125]
//	corner (s3, s5):     [0.5, 0.875]
//	fk     (s1, s2, s4): [0.5, 0.25]
//	foul   (s4):         [0.75, 0]      feature 1 skipped: its mean is 0
//
// and every other concept annotates no state: a zero row, every feature
// skipped, sim 0. Per concept, with d_f = |B1(s, f) − B1′(e, f)|:
//
//	goal:   0.5·(1−d0)/0.125 + 0.5·(1−d1)/0.125 = 4(1−d0) + 4(1−d1)
//	        s0 3.5+3.5 = 7   s1 2.5+2.5 = 5   s2 3.5+3.5 = 7
//	        s3 0.5+0.5 = 1   s4 1.5+3.5 = 5   s5 3.5+1.5 = 5
//	corner: 0.5·(1−d0)/0.5 + 0.5·(1−d1)/0.875 = (1−d0) + (4/7)(1−d1)
//	        s0 0.5+1/14 = 4/7      s1 1+5/14 = 19/14   s2 0.75+3/14 = 27/28
//	        s3 0.5+0.5 = 1         s4 0.75+1/14 = 23/28 s5 0.5+0.5 = 1
//	fk:     0.5·(1−d0)/0.5 + 0.5·(1−d1)/0.25 = (1−d0) + 2(1−d1)
//	        s0 0.5+1.5 = 2   s1 1+1.5 = 2.5   s2 0.75+2 = 2.75
//	        s3 0.5+0.5 = 1   s4 0.75+1.5 = 2.25   s5 0.5+1 = 1.5
//	foul:   0.5·(1−d0)/0.75 = (2/3)(1−d0), feature 1 skipped
//	        s0 1/6   s1 1/2   s2 1/3   s3 1/2   s4 2/3   s5 1/6
//
// Without the skip, foul's feature 1 would divide by zero: +Inf for
// every state but s3, whose d1 = 1 makes it 0/0 = NaN.
//
// The sevenths, sixths and thirds round, so those are compared within
// 1e-15 relative; every other value is a binary fraction and exact.
// Both the precomputed table and the direct evaluation are checked.
func TestEquationFourteenLiteral(t *testing.T) {
	m := ledgerModel(t)
	want := map[videomodel.Event][6]float64{
		videomodel.EventGoal:       {7, 5, 7, 1, 5, 5},
		videomodel.EventCornerKick: {4.0 / 7, 19.0 / 14, 27.0 / 28, 1, 23.0 / 28, 1},
		videomodel.EventFreeKick:   {2, 2.5, 2.75, 1, 2.25, 1.5},
		videomodel.EventFoul:       {1.0 / 6, 0.5, 1.0 / 3, 0.5, 2.0 / 3, 1.0 / 6},
	}
	if m.NumStates() != 6 || m.K() != 2 {
		t.Fatalf("%d states × %d features, want 6 × 2", m.NumStates(), m.K())
	}
	if m.B1Prime.At(videomodel.EventFoul.Index(), 1) != 0 {
		t.Fatalf("foul's B1′ feature 1 is %v, want 0", m.B1Prime.At(videomodel.EventFoul.Index(), 1))
	}
	for _, noCache := range []bool{false, true} {
		eng, err := retrieval.NewEngine(m, retrieval.Options{NoSimCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < m.NumConcepts(); c++ {
			e := videomodel.EventFromIndex(c)
			w := want[e] // zero for a concept no state carries
			for s := 0; s < m.NumStates(); s++ {
				if got := eng.Sim(s, e); !(math.Abs(got-w[s]) <= 1e-15*w[s]) {
					t.Errorf("NoSimCache %v: sim(s%d, %s) = %v, want %v", noCache, s, e, got, w[s])
				}
			}
		}
	}
}
