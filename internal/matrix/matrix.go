// Package matrix implements the small dense linear-algebra kernel the HMMM
// model is built on: row-major float64 matrices with the min-max feature
// scaling and the stochastic validation helpers that the paper's
// construction formulas (Eqs. 1-11) require.
//
// The package deliberately stays tiny. HMMM never needs factorization or
// inversion — only element access, row operations, and normalization — so
// the implementation favors clarity and exact reproducibility over BLAS-like
// generality.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix. It panics if either dimension
// is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: NewDense(%d, %d) with negative dimension", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Flat returns the row-major backing slice of the matrix: row i occupies
// elements [i*Cols(), (i+1)*Cols()). It aliases the matrix storage, so
// mutating the returned slice mutates the matrix. Hot loops that walk many
// rows (the retrieval engine's similarity-table build) use it to slice
// rows without the per-row bounds check of Row.
func (m *Dense) Flat() []float64 { return m.data }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// ColSum returns the sum of column j.
func (m *Dense) ColSum(j int) float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: column %d out of bounds for %dx%d matrix", j, m.rows, m.cols))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+j]
	}
	return s
}

// IsRowStochastic reports whether every row sums to 1 within tol and every
// element is non-negative. NaN fails both tests.
func (m *Dense) IsRowStochastic(tol float64) bool {
	for i := 0; i < m.rows; i++ {
		if !Stochastic(m.Row(i), tol) {
			return false
		}
	}
	return true
}

// Stochastic reports whether row is a distribution: every element
// non-negative and the sum 1 within tol. The tests are written so that
// NaN fails them.
func Stochastic(row []float64, tol float64) bool {
	var sum float64
	for _, v := range row {
		if !(v >= 0) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

// String renders the matrix for debugging: small matrices in full, large
// ones abbreviated.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	}
	s := ""
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf("%8.4f\n", m.Row(i))
	}
	return s
}
