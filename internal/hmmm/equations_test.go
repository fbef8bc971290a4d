package hmmm

import (
	"math"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/videomodel"
)

// ledgerArchive is the equation ledger's fixture: 3 videos, 8 shots, 6
// of them annotated, with K = 2 raw features per annotated shot:
//
//	video 1: shot 0 goal       [2, 10]   (state 0)
//	         shot 1 —
//	         shot 2 free kick  [6, 30]   (state 1)
//	video 2: shot 3 goal + fk  [4, 20]   (state 2)
//	         shot 4 corner     [10, 50]  (state 3)
//	         shot 5 —
//	video 3: shot 6 free kick  [8, 10]   (state 4)
//	         shot 7 corner     [2, 40]   (state 5)
//
// Unannotated shots are not states and carry no feature vector. opts
// (at most one) are the build options; the default keeps the uniform
// Eq. 7 P1,2.
func ledgerArchive(t *testing.T, opts ...BuildOptions) *Model {
	t.Helper()
	goal, fk, corner := videomodel.EventGoal, videomodel.EventFreeKick, videomodel.EventCornerKick
	shots := [][]struct {
		events []videomodel.Event
		raw    []float64
	}{
		{{[]videomodel.Event{goal}, []float64{2, 10}}, {}, {[]videomodel.Event{fk}, []float64{6, 30}}},
		{{[]videomodel.Event{goal, fk}, []float64{4, 20}}, {[]videomodel.Event{corner}, []float64{10, 50}}, {}},
		{{[]videomodel.Event{fk}, []float64{8, 10}}, {[]videomodel.Event{corner}, []float64{2, 40}}},
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
	var o BuildOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	m, err := Build(a, feats, o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEquationThreeLiteral works Eq. 3 by hand on the ledger fixture:
// B1(i,j) = (BB1(i,j) − min_j) / (max_j − min_j) over the six states.
//
//	column 0: raw [2, 6, 4, 10, 8, 2], min 2, max 10, span 8
//	          → [0, 4/8, 2/8, 8/8, 6/8, 0] = [0, 0.5, 0.25, 1, 0.75, 0]
//	column 1: raw [10, 30, 20, 50, 10, 40], min 10, max 50, span 40
//	          → [0, 20/40, 10/40, 40/40, 0, 30/40] = [0, 0.5, 0.25, 1, 0, 0.75]
//
// Every quotient is a binary fraction, so each value is exact.
func TestEquationThreeLiteral(t *testing.T) {
	m := ledgerArchive(t)
	want := [6][2]float64{{0, 0}, {0.5, 0.5}, {0.25, 0.25}, {1, 1}, {0.75, 0}, {0, 0.75}}
	if m.NumStates() != 6 || m.K() != 2 {
		t.Fatalf("%d states × %d features, want 6 × 2", m.NumStates(), m.K())
	}
	for i, row := range want {
		for j, w := range row {
			if got := m.B1.At(i, j); got != w {
				t.Errorf("B1(%d,%d) = %v, want %v", i, j, got, w)
			}
		}
	}
	if min, max := m.Scaler.Bounds(); !reflect.DeepEqual(min, []float64{2, 10}) || !reflect.DeepEqual(max, []float64{10, 50}) {
		t.Errorf("scaler bounds min %v max %v, want [2 10] and [10 50]", min, max)
	}
	// A query vector is mapped into B1 space with the same bounds, and
	// clamped: [6, 60] → [(6−2)/8, 1] = [0.5, 1].
	q := []float64{6, 60}
	m.Scaler.TransformRow(q)
	if q[0] != 0.5 || q[1] != 1 {
		t.Errorf("query [6, 60] maps to %v, want [0.5 1]", q)
	}
}

// TestEquationElevenLiteral works Eq. 11 by hand on the ledger fixture:
// B1′(c, k) is the mean of B1(s, k) over the states annotated with c
// (the B1 rows are TestEquationThreeLiteral's).
//
//	goal      states 0, 2:    [(0+0.25)/2, (0+0.25)/2]          = [0.125, 0.125]
//	free kick states 1, 2, 4: [(0.5+0.25+0.75)/3, (0.5+0.25+0)/3] = [0.5, 0.25]
//	corner    states 3, 5:    [(1+0)/2, (1+0.75)/2]             = [0.5, 0.875]
//
// Every other concept annotates no state and keeps a zero row.
func TestEquationElevenLiteral(t *testing.T) {
	m := ledgerArchive(t)
	want := map[videomodel.Event][2]float64{
		videomodel.EventGoal:       {0.125, 0.125},
		videomodel.EventFreeKick:   {0.5, 0.25},
		videomodel.EventCornerKick: {0.5, 0.875},
	}
	for c := 0; c < m.NumConcepts(); c++ {
		w := want[videomodel.EventFromIndex(c)]
		for k := 0; k < 2; k++ {
			if got := m.B1Prime.At(c, k); got != w[k] {
				t.Errorf("B1'(%s, %d) = %v, want %v", videomodel.EventFromIndex(c), k, got, w[k])
			}
		}
	}
}

// TestEquationsEightToTenLiteral works Eqs. 8-10 by hand on the ledger
// fixture with P1,2 learned: for each event concept c, the weight of
// feature k is the inverse standard deviation (over the states
// annotated with c) of B1's column k, normalized over the K features:
// P1,2(c, k) = (1/σ_ck) / Σ_k' (1/σ_ck'). σ is the population std (the
// mean squared deviation's root). The B1 rows are
// TestEquationThreeLiteral's.
//
//	goal      states 0, 2:    k0 [0, 0.25]       mean 0.125, σ² = (0.125² + 0.125²)/2     = 1/64, σ = 0.125
//	                          k1 [0, 0.25]       mean 0.125, σ = 0.125
//	                          1/σ = [8, 8], Σ 16 → P1,2 = [0.5, 0.5]
//	free kick states 1, 2, 4: k0 [0.5, 0.25, 0.75] mean 0.5,  σ² = (0 + 0.25² + 0.25²)/3 = 1/24
//	                          k1 [0.5, 0.25, 0]    mean 0.25, σ² = (0.25² + 0 + 0.25²)/3 = 1/24
//	                          1/σ = [√24, √24]   → P1,2 = [0.5, 0.5]
//	corner    states 3, 5:    k0 [1, 0]          mean 0.5,   σ² = (0.5² + 0.5²)/2     = 1/4, σ = 0.5
//	                          k1 [1, 0.75]       mean 0.875, σ² = (0.125² + 0.125²)/2 = 1/64, σ = 0.125
//	                          1/σ = [2, 8], Σ 10  → P1,2 = [0.2, 0.8]
//
// Every other concept annotates fewer than two states and keeps the
// uniform Eq. 7 row 1/K = 0.5. Every σ but free kick's is a power of
// two, and free kick's two are equal, so each weight is the double
// nearest its literal.
func TestEquationsEightToTenLiteral(t *testing.T) {
	m := ledgerArchive(t, BuildOptions{LearnP12: true})
	goal, fk, corner := videomodel.EventGoal, videomodel.EventFreeKick, videomodel.EventCornerKick
	cases := []struct {
		c      videomodel.Event
		states []int
		inputs [2][]float64 // B1 column k over the states, Eq. 8's inputs
		std    [2]float64
		want   [2]float64
	}{
		{goal, []int{0, 2}, [2][]float64{{0, 0.25}, {0, 0.25}}, [2]float64{0.125, 0.125}, [2]float64{0.5, 0.5}},
		{fk, []int{1, 2, 4}, [2][]float64{{0.5, 0.25, 0.75}, {0.5, 0.25, 0}}, [2]float64{0.2041241452319315, 0.2041241452319315}, [2]float64{0.5, 0.5}},
		{corner, []int{3, 5}, [2][]float64{{1, 0}, {1, 0.75}}, [2]float64{0.5, 0.125}, [2]float64{0.2, 0.8}},
	}
	learned := map[videomodel.Event]bool{}
	for _, tc := range cases {
		learned[tc.c] = true
		for k := 0; k < 2; k++ {
			for i, s := range tc.states {
				if got := m.B1.At(s, k); got != tc.inputs[k][i] {
					t.Errorf("%s: B1(%d,%d) = %v, want the input %v", tc.c, s, k, got, tc.inputs[k][i])
				}
			}
			// The literal σ against the definition, worked in the
			// comment above: σ² is the mean squared deviation.
			var mean, ss float64
			for _, v := range tc.inputs[k] {
				mean += v
			}
			mean /= float64(len(tc.inputs[k]))
			for _, v := range tc.inputs[k] {
				ss += float64((v - mean) * (v - mean))
			}
			if got := math.Sqrt(ss / float64(len(tc.inputs[k]))); got != tc.std[k] {
				t.Errorf("%s: σ of feature %d = %v, want %v", tc.c, k, got, tc.std[k])
			}
		}
		inv0, inv1 := 1/tc.std[0], 1/tc.std[1]
		if w0, w1 := inv0/(inv0+inv1), inv1/(inv0+inv1); w0 != tc.want[0] || w1 != tc.want[1] {
			t.Errorf("%s: Eqs. 9-10 over σ %v give [%v %v], want %v", tc.c, tc.std, w0, w1, tc.want)
		}
		for k, w := range tc.want {
			if got := m.P12.At(tc.c.Index(), k); got != w {
				t.Errorf("P1,2(%s, %d) = %v, want %v", tc.c, k, got, w)
			}
		}
	}
	for c := 0; c < m.NumConcepts(); c++ {
		if learned[videomodel.EventFromIndex(c)] {
			continue
		}
		for k := 0; k < 2; k++ {
			if got := m.P12.At(c, k); got != 0.5 {
				t.Errorf("P1,2(%s, %d) = %v, want the uniform Eq. 7 weight 0.5", videomodel.EventFromIndex(c), k, got)
			}
		}
	}
}
