package mmm

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/xrand"
)

// The dense reference of Eqs. (5)-(6): the n×n co-access, the row
// normalization and the uniform smoothing A2 was computed with while it
// was a matrix.Dense. BuildAffinityA must match it bit for bit.

// coAccessDense computes the Σ_k use(m,k)·use(n,k)·access(k) term of
// Eq. (5) over n states, adding each pattern's frequency once per pair
// of the distinct states it uses.
func coAccessDense(patterns []AccessPattern, n int) (*matrix.Dense, error) {
	co := matrix.NewDense(n, n)
	for pi, p := range patterns {
		for _, s := range p.States {
			if p.Freq > 0 && (s < 0 || s >= n) {
				return nil, fmt.Errorf("pattern %d references state %d of %d", pi, s, n)
			}
		}
		if p.Freq <= 0 {
			continue
		}
		seen := map[int]bool{}
		for _, s := range p.States {
			seen[s] = true
		}
		for m := range seen {
			for k := range seen {
				co.Set(m, k, co.At(m, k)+float64(p.Freq))
			}
		}
	}
	return co, nil
}

// normalizeRowsDense scales each row of d so it sums to 1 (the Eq. 2 /
// Eq. 6 step), summing in ascending column order; a row summing to zero
// is left as it is.
func normalizeRowsDense(d *matrix.Dense) {
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum == 0 {
			continue
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// smoothRowsDense replaces every all-zero row of d with the uniform
// distribution 1/cols.
func smoothRowsDense(d *matrix.Dense) {
	if d.Cols() == 0 {
		return
	}
	u := 1 / float64(d.Cols())
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		zero := true
		for _, v := range row {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			for j := range row {
				row[j] = u
			}
		}
	}
}

// affinityDense is Eqs. (5)-(6) over the dense reference: co-access,
// normalized, unobserved rows uniform.
func affinityDense(patterns []AccessPattern, n int) (*matrix.Dense, error) {
	co, err := coAccessDense(patterns, n)
	if err != nil {
		return nil, err
	}
	normalizeRowsDense(co)
	smoothRowsDense(co)
	return co, nil
}

// denseOf returns the matrix holding rows.
func denseOf(rows [][]float64) *matrix.Dense {
	d := matrix.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	return d
}

// TestCoAccessIgnoresPatternOrder: use(m,k) asks only whether pattern k
// uses a state, so a pattern and its reverse count alike.
func TestCoAccessIgnoresPatternOrder(t *testing.T) {
	patterns := []AccessPattern{
		{States: []int{0, 2}, Freq: 3},
		{States: []int{2, 0}, Freq: 1},
	}
	co, err := coAccessDense(patterns, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{0, 2}, {2, 0}, {0, 0}, {2, 2}} {
		if got := co.At(c[0], c[1]); got != 4 {
			t.Errorf("co(%d,%d) = %v, want 4", c[0], c[1], got)
		}
	}
	if got := co.At(1, 1); got != 0 {
		t.Errorf("co(1,1) = %v, want 0", got)
	}
}

func TestCoAccessNonTemporalSymmetric(t *testing.T) {
	patterns := []AccessPattern{{States: []int{1, 2}, Freq: 2}}
	co, err := coAccessDense(patterns, 3)
	if err != nil {
		t.Fatal(err)
	}
	if co.At(1, 2) != co.At(2, 1) || co.At(1, 2) != 2 {
		t.Errorf("co(1,2)=%v co(2,1)=%v, want both 2", co.At(1, 2), co.At(2, 1))
	}
}

func TestCoAccessDeduplicatesStates(t *testing.T) {
	// use(m,k) is an indicator: repeating a state in one pattern must not
	// double-count.
	patterns := []AccessPattern{{States: []int{1, 1, 1}, Freq: 5}}
	co, err := coAccessDense(patterns, 2)
	if err != nil {
		t.Fatal(err)
	}
	if co.At(1, 1) != 5 {
		t.Errorf("co(1,1) = %v, want 5", co.At(1, 1))
	}
}

func TestCoAccessIgnoresNonPositiveFreq(t *testing.T) {
	patterns := []AccessPattern{{States: []int{0}, Freq: 0}, {States: []int{0}, Freq: -2}}
	co, err := coAccessDense(patterns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if co.At(0, 0) != 0 {
		t.Errorf("co = %v, want 0", co.At(0, 0))
	}
}

func TestCoAccessRejectsOutOfRange(t *testing.T) {
	if _, err := coAccessDense([]AccessPattern{{States: []int{5}, Freq: 1}}, 3); err == nil {
		t.Error("out-of-range state accepted")
	}
}

func TestNormalizeRows(t *testing.T) {
	m := denseOf([][]float64{{1, 3}, {0, 0}, {2, 2}})
	normalizeRowsDense(m)
	if got := m.At(0, 0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("normalized (0,0) = %v, want 0.25", got)
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Error("zero row was modified by normalizeRowsDense")
	}
	if got := m.At(2, 0) + m.At(2, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("row 2 sum = %v, want 1", got)
	}
}

func TestSmoothRows(t *testing.T) {
	m := denseOf([][]float64{{0, 0}, {1, 0}})
	smoothRowsDense(m)
	if m.At(0, 0) != 0.5 || m.At(0, 1) != 0.5 {
		t.Errorf("zero row not smoothed: %v %v", m.At(0, 0), m.At(0, 1))
	}
	if m.At(1, 0) != 1 {
		t.Error("non-zero row was modified by smoothRowsDense")
	}
}

func TestNormalizeMakesStochastic(t *testing.T) {
	// Property: any non-negative matrix with positive row sums becomes
	// row-stochastic after normalizeRowsDense.
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		m := matrix.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.Float64()+0.01)
			}
		}
		normalizeRowsDense(m)
		return m.IsRowStochastic(1e-9)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestBuildAffinityAMatchesDenseReference: over 300 random pattern
// sets — non-positive frequencies and repeated states included — every
// entry of BuildAffinityA's matrix has the bits of the dense reference's,
// the matrix is the one A2FromDense holds the reference as (uniform 1/n
// plus the differing rows), and so is every restriction to a random
// video subset, as a shard takes it.
func TestBuildAffinityAMatchesDenseReference(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(12)
		var patterns []AccessPattern
		for p := rng.Intn(7); p > 0; p-- {
			var states []int
			for s := 1 + rng.Intn(5); s > 0; s-- {
				states = append(states, rng.Intn(n))
			}
			patterns = append(patterns, AccessPattern{States: states, Freq: rng.Intn(6) - 1})
		}
		got, err := BuildAffinityA(patterns, n)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, err := affinityDense(patterns, n)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !sameEntries(got, want, nil) {
			t.Logf("seed %d n=%d patterns %v:\n got %+v\nwant %v", seed, n, patterns, got, want)
			return false
		}
		if canon, err := A2FromDense(want); err != nil || !reflect.DeepEqual(got, canon) {
			t.Logf("seed %d: built %+v, canonical reference %+v (%v)", seed, got, canon, err)
			return false
		}
		idx := []int{}
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, v)
			}
		}
		if sub := got.Restrict(idx); !sameEntries(sub, want, idx) || !storesOnlyDiffering(sub) {
			t.Logf("seed %d: restriction to %v is %+v", seed, idx, sub)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sameEntries reports whether every entry of a has the bits of d's
// entry over the videos idx (all of d's when idx is nil).
func sameEntries(a *A2, d *matrix.Dense, idx []int) bool {
	if idx == nil {
		for v := 0; v < d.Rows(); v++ {
			idx = append(idx, v)
		}
	}
	if a.Rows() != len(idx) {
		return false
	}
	for k, vi := range idx {
		for l, vj := range idx {
			if math.Float64bits(a.At(k, l)) != math.Float64bits(d.At(vi, vj)) {
				return false
			}
		}
	}
	return true
}

// storesOnlyDiffering reports whether a stores exactly the rows that do
// not read u in every column.
func storesOnlyDiffering(a *A2) bool {
	for i := 0; i < a.Rows(); i++ {
		r := a.Explicit(i)
		if (r != nil) == allBits(a.Row(i, nil), a.u) {
			return false
		}
	}
	return true
}
