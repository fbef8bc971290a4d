package mmm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/xrand"
)

func TestInitTemporalAPaperExample(t *testing.T) {
	// Section 4.2.1.1: shots annotated "Free Kick", {"Free Kick","Goal"},
	// "Corner Kick" => NE = [1, 2, 1].
	a, err := InitTemporalA([]int{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{0, 2.0 / 3, 1.0 / 3},
		{0, 0.5, 0.5},
		{0, 0, 1},
	}
	for i := range want {
		for j := range want[i] {
			if got := a.At(i, j); math.Abs(got-want[i][j]) > 1e-12 {
				t.Errorf("A1(%d,%d) = %v, want %v", i+1, j+1, got, want[i][j])
			}
		}
	}
}

func TestInitTemporalARowStochastic(t *testing.T) {
	// Property: for any positive NE vector the result is row-stochastic
	// and upper-triangular.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(30)
		ne := make([]int, n)
		for i := range ne {
			ne[i] = 1 + rng.Intn(4)
		}
		a, err := InitTemporalA(ne)
		if err != nil {
			return false
		}
		if !a.IsRowStochastic(1e-9) {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if a.At(i, j) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestInitTemporalAErrors(t *testing.T) {
	if _, err := InitTemporalA(nil); !errors.Is(err, ErrNoStates) {
		t.Errorf("empty err = %v, want ErrNoStates", err)
	}
	if _, err := InitTemporalA([]int{1, 0}); err == nil {
		t.Error("zero count accepted")
	}
}

func TestInitTemporalASingleState(t *testing.T) {
	a, err := InitTemporalA([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 {
		t.Errorf("single state A = %v, want 1", a.At(0, 0))
	}
}

func TestUpdateAReinforcesCoAccessedPairs(t *testing.T) {
	prior, err := InitTemporalA([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	before02 := prior.At(0, 2)
	patterns := []AccessPattern{{States: []int{0, 2}, Freq: 10}}
	updated, err := UpdateA(prior, patterns, DefaultUpdateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !updated.IsRowStochastic(1e-9) {
		t.Error("updated A not row-stochastic")
	}
	if got := updated.At(0, 2); got <= before02 {
		t.Errorf("A(0,2) = %v after positive feedback, want > prior %v", got, before02)
	}
	if updated.At(0, 2) <= updated.At(0, 1) {
		t.Errorf("reinforced transition %v should exceed unreinforced %v", updated.At(0, 2), updated.At(0, 1))
	}
}

func TestUpdateAKeepUntrainedRows(t *testing.T) {
	prior, _ := InitTemporalA([]int{1, 1, 1})
	patterns := []AccessPattern{{States: []int{0, 1}, Freq: 5}}
	updated, err := UpdateA(prior, patterns, DefaultUpdateOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Row 2 had no feedback: it must match the prior.
	for j := 0; j < 3; j++ {
		if updated.At(2, j) != prior.At(2, j) {
			t.Errorf("untrained row changed at col %d: %v vs %v", j, updated.At(2, j), prior.At(2, j))
		}
	}
}

func TestUpdateALiteralEquationZeroesUnobserved(t *testing.T) {
	prior, _ := InitTemporalA([]int{1, 1, 1})
	patterns := []AccessPattern{{States: []int{0, 1}, Freq: 5}}
	updated, err := UpdateA(prior, patterns, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := updated.At(0, 2); got != 0 {
		t.Errorf("literal Eq.(1): A(0,2) = %v, want 0", got)
	}
	if got := updated.At(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("literal Eq.(1): A(0,1) = %v, want 1", got)
	}
}

func TestBuildAffinityA(t *testing.T) {
	patterns := []AccessPattern{
		{States: []int{0, 1}, Freq: 3},
		{States: []int{0, 2}, Freq: 1},
	}
	a, err := BuildAffinityA(patterns, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsRowStochastic(1e-9) {
		t.Error("A2 not row-stochastic")
	}
	if a.At(0, 1) <= a.At(0, 2) {
		t.Errorf("A2(0,1)=%v should exceed A2(0,2)=%v", a.At(0, 1), a.At(0, 2))
	}
}

func TestBuildAffinityANoData(t *testing.T) {
	a, err := BuildAffinityA(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsRowStochastic(1e-9) {
		t.Error("empty-data A2 should be uniform row-stochastic")
	}
	if a.At(0, 0) != 0.5 {
		t.Errorf("uniform entry = %v, want 0.5", a.At(0, 0))
	}
}

func TestBuildAffinityAErrors(t *testing.T) {
	if _, err := BuildAffinityA(nil, 0); !errors.Is(err, ErrNoStates) {
		t.Errorf("err = %v, want ErrNoStates", err)
	}
	if _, err := BuildAffinityA([]AccessPattern{{States: []int{0, 3}, Freq: 1}}, 3); err == nil {
		t.Error("out-of-range state accepted")
	}
}

func TestBuildPiInitialOnly(t *testing.T) {
	patterns := []AccessPattern{
		{States: []int{2, 0}, Freq: 3},
		{States: []int{1}, Freq: 1},
	}
	pi, err := BuildPi(patterns, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if pi[2] != 0.75 || pi[1] != 0.25 || pi[0] != 0 {
		t.Errorf("pi = %v, want [0 0.25 0.75]", pi)
	}
}

func TestBuildPiAllUsage(t *testing.T) {
	patterns := []AccessPattern{{States: []int{0, 1, 1}, Freq: 2}}
	pi, err := BuildPi(patterns, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] != 0.5 || pi[1] != 0.5 {
		t.Errorf("pi = %v, want [0.5 0.5 0]", pi)
	}
}

func TestBuildPiUniformFallback(t *testing.T) {
	pi, err := BuildPi(nil, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pi {
		if p != 0.25 {
			t.Errorf("fallback pi = %v, want uniform 0.25", pi)
			break
		}
	}
}

func TestBuildPiErrors(t *testing.T) {
	if _, err := BuildPi(nil, 0, true); !errors.Is(err, ErrNoStates) {
		t.Errorf("err = %v, want ErrNoStates", err)
	}
	if _, err := BuildPi([]AccessPattern{{States: []int{7}, Freq: 1}}, 2, true); err == nil {
		t.Error("out-of-range state accepted")
	}
	if _, err := BuildPi([]AccessPattern{{States: []int{7}, Freq: 1}}, 2, false); err == nil {
		t.Error("out-of-range state accepted (all-usage mode)")
	}
}

func TestUpdatePreservesStochasticProperty(t *testing.T) {
	// Property: for any prior and any patterns, the update yields a
	// row-stochastic matrix when smoothing keeps rows alive.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(10)
		ne := make([]int, n)
		for i := range ne {
			ne[i] = 1 + rng.Intn(3)
		}
		prior, err := InitTemporalA(ne)
		if err != nil {
			return false
		}
		var patterns []AccessPattern
		for p := 0; p < rng.Intn(5); p++ {
			var states []int
			for s := 0; s < 1+rng.Intn(4); s++ {
				states = append(states, rng.Intn(n))
			}
			patterns = append(patterns, AccessPattern{States: states, Freq: 1 + rng.Intn(5)})
		}
		updated, err := UpdateA(prior, patterns, DefaultUpdateOptions())
		if err != nil {
			return false
		}
		return updated.IsRowStochastic(1e-9)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpdateA(b *testing.B) {
	rng := xrand.New(1)
	const n = 200
	ne := make([]int, n)
	for i := range ne {
		ne[i] = 1 + rng.Intn(3)
	}
	prior, err := InitTemporalA(ne)
	if err != nil {
		b.Fatal(err)
	}
	var patterns []AccessPattern
	for p := 0; p < 50; p++ {
		states := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		patterns = append(patterns, AccessPattern{States: states, Freq: 1 + rng.Intn(3)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UpdateA(prior, patterns, DefaultUpdateOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRowEntropy(t *testing.T) {
	a := upper([][]float64{
		{0.5, 0.5, 0, 0},   // 1 bit
		{0, 1, 0, 0},       // 0 bits
		{0, 0, 0.25, 0.75}, // ~0.811 bits
		{0, 0, 0, 1},       // 0 bits
	})
	h := RowEntropy(a)
	if math.Abs(h[0]-1) > 1e-12 {
		t.Errorf("uniform row entropy = %v, want 1", h[0])
	}
	if h[1] != 0 {
		t.Errorf("deterministic row entropy = %v, want 0", h[1])
	}
	if math.Abs(h[2]-0.8112781244591328) > 1e-9 {
		t.Errorf("skewed row entropy = %v", h[2])
	}
	if h[3] != 0 {
		t.Errorf("absorbing row entropy = %v, want 0", h[3])
	}
	if got := MeanEntropy(a); math.Abs(got-(h[0]+h[1]+h[2]+h[3])/4) > 1e-12 {
		t.Errorf("mean entropy = %v", got)
	}
	if MeanEntropy(new(A1)) != 0 {
		t.Error("empty mean entropy != 0")
	}
}

func TestTrainingLowersEntropy(t *testing.T) {
	prior, err := InitTemporalA([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	before := MeanEntropy(prior)
	updated, err := UpdateA(prior, []AccessPattern{{States: []int{0, 1}, Freq: 20}}, DefaultUpdateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if after := MeanEntropy(updated); after >= before {
		t.Errorf("entropy after reinforcement = %v, want < %v", after, before)
	}
}

// TestEquationsOneTwoLiteral works Eqs. 1-2 by hand on a 4-state video
// with NE = [2, 1, 3, 1], so the suffix sums Σ_{k≥i} NE(s_k) are
// [7, 5, 4, 1]. Every entry of the 4×4 result is checked, the zeros left
// of the diagonal included.
func TestEquationsOneTwoLiteral(t *testing.T) {
	prior, err := InitTemporalA([]int{2, 1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.2.1.1 (1): row i divides by its suffix sum minus one,
	// the diagonal takes NE(s_i)-1 and column j > i takes NE(s_j).
	//   row 0: / (7-1) = 6 → [(2-1)/6, 1/6, 3/6, 1/6]
	//   row 1: / (5-1) = 4 → [0, (1-1)/4, 3/4, 1/4]
	//   row 2: / (4-1) = 3 → [0, 0, (3-1)/3, 1/3]
	//   row 3: the last state → A1(N,N) = 1
	wantPrior := [4][4]float64{
		{1.0 / 6, 1.0 / 6, 1.0 / 2, 1.0 / 6},
		{0, 0, 3.0 / 4, 1.0 / 4},
		{0, 0, 2.0 / 3, 1.0 / 3},
		{0, 0, 0, 1},
	}
	for i, row := range wantPrior {
		for j, want := range row {
			if got := prior.At(i, j); got != want {
				t.Errorf("A1(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}

	// One Eq. (1)-(2) step with the training defaults (smoothing 0.01,
	// untrained rows kept). The patterns {0, 2}×3 and {2, 3}×1 give
	// the co-access counts (m ≤ n only): (0,0) = 3, (0,2) = 3, (2,2) = 3+1,
	// (2,3) = 1, (3,3) = 1, every other pair 0.
	patterns := []AccessPattern{{States: []int{0, 2}, Freq: 3}, {States: []int{2, 3}, Freq: 1}}
	updated, err := UpdateA(prior, patterns, DefaultUpdateOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (1): AF(m,n) = A1(m,n)·(0.01 + co(m,n)); Eq. (2) divides by the
	// row sum.
	//   row 0: [3.01, 0.01, 9.03, 0.01]/6, sum 12.06/6 → [301, 1, 903, 1]/1206
	//   row 1: no co-access → untrained, the prior row stays
	//   row 2: [0, 0, 2·4.01, 1.01]/3, sum 9.03/3 → [0, 0, 802, 101]/903
	//   row 3: [0, 0, 0, 1·1.01] → [0, 0, 0, 1]
	wantUpdated := [4][4]float64{
		{301.0 / 1206, 1.0 / 1206, 903.0 / 1206, 1.0 / 1206},
		{0, 0, 3.0 / 4, 1.0 / 4},
		{0, 0, 802.0 / 903, 101.0 / 903},
		{0, 0, 0, 1},
	}
	for i, row := range wantUpdated {
		for j, want := range row {
			if got := updated.At(i, j); math.Abs(got-want) > 1e-15 {
				t.Errorf("AF(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if prior.At(0, 2) != 1.0/2 {
		t.Error("UpdateA modified its prior")
	}
}

// TestEquationsFourToSixLiteral works Eqs. 4-6 by hand at the video
// level of a 3-video archive. The access patterns (video indices, access
// frequency) are
//
//	k=1: {0, 1}    ×3
//	k=2: {1, 0, 1} ×1  (use(m,k) is an indicator: video 1 counts once)
//	k=3: {1}       ×4
//	k=4: {2}       ×0  (no access: ignored)
//	k=5: {}        ×5  (uses no video: ignored)
//
// so video 2 is never used.
func TestEquationsFourToSixLiteral(t *testing.T) {
	patterns := []AccessPattern{
		{States: []int{0, 1}, Freq: 3},
		{States: []int{1, 0, 1}, Freq: 1},
		{States: []int{1}, Freq: 4},
		{States: []int{2}, Freq: 0},
		{Freq: 5},
	}
	// Eq. (5): AF(m,n) = Σ_k use(m,k)·use(n,k)·access(k).
	//   k=1 adds 3 and k=2 adds 1 to (0,0), (0,1), (1,0), (1,1);
	//   k=3 adds 4 to (1,1).
	//   row 0: [4, 4, 0]; row 1: [4, 8, 0]; row 2: [0, 0, 0]
	// Eq. (6): A2(m,n) = AF(m,n) / Σ_n AF(m,n); a row with no
	// observations becomes uniform so A2 stays row-stochastic.
	//   row 0: [4, 4, 0]/8 = [1/2, 1/2, 0]
	//   row 1: [4, 8, 0]/12 = [1/3, 2/3, 0]
	//   row 2: [1/3, 1/3, 1/3]
	a2, err := BuildAffinityA(patterns, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantA2 := [3][3]float64{
		{0.5, 0.5, 0},
		{1.0 / 3, 2.0 / 3, 0},
		{1.0 / 3, 1.0 / 3, 1.0 / 3},
	}
	for m, row := range wantA2 {
		for n, want := range row {
			if got := a2.At(m, n); got != want {
				t.Errorf("A2(%d,%d) = %v, want %v", m, n, got, want)
			}
		}
	}

	// Eq. (4): Π(m) = Σ_k use(m,k)·access(k) / Σ_m Σ_k use(m,k)·access(k).
	cases := []struct {
		initialOnly bool
		want        [3]float64
	}{
		// First-of-pattern occurrences only (the Section 4.2.1.3 text):
		// video 0 starts k=1 (3), video 1 starts k=2 and k=3 (1+4 = 5);
		// total 8 → [3/8, 5/8, 0].
		{true, [3]float64{0.375, 0.625, 0}},
		// Every usage (the literal formula): video 0 in k=1, k=2
		// (3+1 = 4), video 1 in k=1, k=2, k=3 (3+1+4 = 8); total 12 →
		// [1/3, 2/3, 0].
		{false, [3]float64{1.0 / 3, 2.0 / 3, 0}},
	}
	for _, c := range cases {
		pi, err := BuildPi(patterns, 3, c.initialOnly)
		if err != nil {
			t.Fatal(err)
		}
		for m, want := range c.want {
			if pi[m] != want {
				t.Errorf("initialOnly %v: Π(%d) = %v, want %v", c.initialOnly, m, pi[m], want)
			}
		}
	}
}
