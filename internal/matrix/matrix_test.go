package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/xrand"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 2.5)
	if got := m.At(0, 1); got != 2.5 {
		t.Fatalf("At(0,1) = %v, want 2.5", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := NewDense(2, 2)
	for name, fn := range map[string]func(){
		"At":     func() { m.At(2, 0) },
		"Set":    func() { m.Set(0, -1, 1) },
		"Row":    func() { m.Row(5) },
		"ColSum": func() { m.ColSum(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of bounds did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIsRowStochastic(t *testing.T) {
	m := mustFromRows(t, [][]float64{{0.5, 0.5}, {0.1, 0.9}})
	if !m.IsRowStochastic(1e-9) {
		t.Error("stochastic matrix reported non-stochastic")
	}
	m.Set(0, 0, -0.5)
	m.Set(0, 1, 1.5)
	if m.IsRowStochastic(1e-9) {
		t.Error("matrix with negative entry reported stochastic")
	}
	// A NaN makes the row sum NaN, which no tolerance accepts.
	nan := mustFromRows(t, [][]float64{{math.NaN(), 0.5}})
	if nan.IsRowStochastic(1e-9) || Stochastic([]float64{0.5, math.NaN()}, math.Inf(1)) {
		t.Error("row holding NaN reported stochastic")
	}
}

func TestRowAliasesStorage(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Error("Row did not alias underlying storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(1, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestColSum(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	if m.ColSum(0) != 4 {
		t.Errorf("ColSum(0) = %v, want 4", m.ColSum(0))
	}
}

func TestFill(t *testing.T) {
	m := NewDense(2, 2)
	m.Fill(2)
	if m.At(1, 1) != 2 {
		t.Errorf("Fill gave %v, want 2", m.At(1, 1))
	}
}

func TestMinMaxScaler(t *testing.T) {
	m := mustFromRows(t, [][]float64{
		{0, 10, 5},
		{10, 10, 7},
		{5, 10, 9},
	})
	var s MinMaxScaler
	s.FitTransform(m) // in place
	out := m
	if out.At(0, 0) != 0 || out.At(1, 0) != 1 || out.At(2, 0) != 0.5 {
		t.Errorf("column 0 scaled to %v %v %v, want 0 1 0.5", out.At(0, 0), out.At(1, 0), out.At(2, 0))
	}
	// Constant column maps to zero.
	for i := 0; i < 3; i++ {
		if out.At(i, 1) != 0 {
			t.Errorf("constant column scaled to %v at row %d, want 0", out.At(i, 1), i)
		}
	}
	if min, max := s.Bounds(); min[2] != 5 || max[2] != 9 {
		t.Errorf("column 2 bounds [%v, %v], want [5, 9]", min[2], max[2])
	}
}

func TestMinMaxScalerClamps(t *testing.T) {
	m := mustFromRows(t, [][]float64{{0}, {10}})
	var s MinMaxScaler
	s.Fit(m)
	row := []float64{20}
	s.TransformRow(row)
	if row[0] != 1 {
		t.Errorf("out-of-range value scaled to %v, want clamp to 1", row[0])
	}
	row = []float64{-5}
	s.TransformRow(row)
	if row[0] != 0 {
		t.Errorf("out-of-range value scaled to %v, want clamp to 0", row[0])
	}
}

func TestMinMaxScalerUnfitted(t *testing.T) {
	var s MinMaxScaler
	if s.fitted {
		t.Fatal("zero scaler reports fitted")
	}
	row := []float64{3}
	s.TransformRow(row)
	if row[0] != 3 {
		t.Error("unfitted TransformRow should be identity")
	}
	// Fitting an empty matrix leaves the scaler unfitted and m as it is.
	s.FitTransform(NewDense(0, 2))
	if s.fitted {
		t.Error("empty fit reports fitted")
	}
}

func TestMinMaxScalerBoundsRoundTrip(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 8}})
	var s MinMaxScaler
	s.Fit(m)
	min, max := s.Bounds()

	var restored MinMaxScaler
	restored.SetBounds(min, max)
	if !restored.fitted {
		t.Fatal("restored scaler not fitted")
	}
	row := []float64{2, 5}
	restored.TransformRow(row)
	if row[0] != 0.5 || row[1] != 0.5 {
		t.Errorf("restored transform = %v, want [0.5 0.5]", row)
	}
}

func TestScalerTransformProperty(t *testing.T) {
	// Property: after FitTransform every element lies in [0,1].
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		rows, cols := 1+r.Intn(20), 1+r.Intn(8)
		m := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.Norm(0, 100))
			}
		}
		var s MinMaxScaler
		s.FitTransform(m)
		out := m
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				v := out.At(i, j)
				if v < 0 || v > 1 || math.IsNaN(v) {
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

func TestStringAbbreviatesLarge(t *testing.T) {
	small := NewDense(2, 2)
	if small.String() == "Dense(2x2)" {
		t.Error("small matrix should render in full")
	}
	big := NewDense(20, 20)
	if big.String() != "Dense(20x20)" {
		t.Errorf("large matrix String = %q", big.String())
	}
}
