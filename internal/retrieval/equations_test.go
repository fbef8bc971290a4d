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

// TestEquationsTwelveToFifteenLiteral works the pattern score by hand on
// the ledger fixture for the two-step query free kick → corner kick:
//
//	Eq. 12: w1 = Π1(s1) · sim(s1, e1)
//	Eq. 13: w2 = w1 · A1(s1, s2) · sim(s2, e2)
//	Eq. 15: SS = w1 + w2
//
// Π1 is uniform before any training (Eq. 4 with no access data), 1/6
// over the six states. A1 is Eq. 1 per video: video 2's states s2
// (goal + fk, NE 2) and s3 (corner, NE 1) have suffix sums [3, 1], so
// A1(s2, s3) = NE(s3) / (3 − 1) = 1/2; video 3's s4 (fk + foul, NE 2)
// and s5 (corner) give A1(s4, s5) = 1/2 the same way. The sims are
// TestEquationFourteenLiteral's: sim(s2, fk) = 2.75, sim(s4, fk) = 2.25,
// sim(s3, corner) = sim(s5, corner) = 1. Video 1's free kick s1 has no
// later corner, so two sequences match:
//
//	(s2, s3): w1 = 2.75/6 = 11/24   w2 = 11/24 · 1/2 · 1 = 11/48
//	          SS = 11/24 + 11/48 = 11/16
//	(s4, s5): w1 = 2.25/6 = 3/8     w2 = 3/8 · 1/2 · 1 = 3/16
//	          SS = 3/8 + 3/16 = 9/16
//
// ranked in that order. The sixths round in float64, so each value is
// also evaluated from the literal factors as the equations order them,
// and that evaluation must match the engine bit for bit; it stays
// within 1e-15 relative of the exact fraction. Explain's factors and
// weights must equal Retrieve's Match.Weights and Score bit for bit.
func TestEquationsTwelveToFifteenLiteral(t *testing.T) {
	m := ledgerModel(t)
	fk, corner := videomodel.EventFreeKick, videomodel.EventCornerKick
	const pi = 1.0 / 6 // Eq. 4, uniform over six states
	want := []struct {
		states        []int
		sim1, a, sim2 float64
		w1, w2, ss    float64 // the exact fractions
	}{
		{[]int{2, 3}, 2.75, 0.5, 1, 11.0 / 24, 11.0 / 48, 11.0 / 16},
		{[]int{4, 5}, 2.25, 0.5, 1, 3.0 / 8, 3.0 / 16, 9.0 / 16},
	}
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	q := retrieval.NewQuery(fk, corner)
	res, err := eng.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != len(want) {
		t.Fatalf("%d matches, want %d: %+v", len(res.Matches), len(want), res.Matches)
	}
	near := func(got, exact float64) bool { return math.Abs(got-exact) <= 1e-15*exact }
	for i, w := range want {
		match := res.Matches[i]
		if match.States[0] != w.states[0] || match.States[1] != w.states[1] {
			t.Fatalf("match %d states %v, want %v", i, match.States, w.states)
		}
		w1 := pi * w.sim1       // Eq. 12
		w2 := w1 * w.a * w.sim2 // Eq. 13
		ss := w1 + w2           // Eq. 15
		if !near(w1, w.w1) || !near(w2, w.w2) || !near(ss, w.ss) {
			t.Fatalf("match %d: the literal evaluation %v, %v, %v strays from %v, %v, %v", i, w1, w2, ss, w.w1, w.w2, w.ss)
		}
		if len(match.Weights) != 2 || match.Weights[0] != w1 || match.Weights[1] != w2 || match.Score != ss {
			t.Errorf("match %d: Retrieve weights %v score %v, want [%v %v] score %v", i, match.Weights, match.Score, w1, w2, ss)
		}
		exps, err := eng.Explain(match, q)
		if err != nil {
			t.Fatal(err)
		}
		e0, e1 := exps[0], exps[1]
		if e0.Pi != pi || e0.Sim != w.sim1 || e0.Weight != match.Weights[0] {
			t.Errorf("match %d step 0: Explain Π1 %v sim %v w %v, want %v %v %v", i, e0.Pi, e0.Sim, e0.Weight, pi, w.sim1, match.Weights[0])
		}
		if e1.CrossVideo || e1.Transition != w.a || e1.Sim != w.sim2 || e1.Weight != match.Weights[1] {
			t.Errorf("match %d step 1: Explain A1 %v sim %v w %v, want %v %v %v", i, e1.Transition, e1.Sim, e1.Weight, w.a, w.sim2, match.Weights[1])
		}
		if e0.Weight+e1.Weight != match.Score {
			t.Errorf("match %d: Explain weights sum to %v, Score %v", i, e0.Weight+e1.Weight, match.Score)
		}
	}
}
