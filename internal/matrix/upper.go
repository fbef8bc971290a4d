package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
)

// Upper is a square float64 matrix that stores only its upper triangle,
// diagonal included: the shape of the per-video temporal A1 blocks, which
// Eq. 1 sets only where T_m ≤ T_n. Row i is packed at offset
// i·n − i(i−1)/2 and holds columns [i, n); every entry left of the
// diagonal reads as 0 and is not stored, so an n×n block costs
// n(n+1)/2 values instead of n².
type Upper struct {
	n    int
	data []float64
}

// NewUpper returns an n×n zero upper-triangular matrix. It panics if n
// is negative.
func NewUpper(n int) *Upper {
	if n < 0 {
		panic(fmt.Sprintf("matrix: NewUpper(%d) with negative dimension", n))
	}
	return &Upper{n: n, data: make([]float64, n*(n+1)/2)}
}

// Rows returns the number of rows (the matrix is square).
func (u *Upper) Rows() int { return u.n }

// offset is where row i starts in the packed storage.
func (u *Upper) offset(i int) int { return i*u.n - i*(i-1)/2 }

// At returns the element at (i, j): 0 left of the diagonal.
func (u *Upper) At(i, j int) float64 {
	u.check(i, j)
	if j < i {
		return 0
	}
	return u.data[u.offset(i)+j-i]
}

// Set assigns the element at (i, j). It panics left of the diagonal,
// where the matrix stores nothing.
func (u *Upper) Set(i, j int, v float64) {
	u.check(i, j)
	if j < i {
		panic(fmt.Sprintf("matrix: Set(%d, %d) below the diagonal of an upper-triangular matrix", i, j))
	}
	u.data[u.offset(i)+j-i] = v
}

func (u *Upper) check(i, j int) {
	if i < 0 || i >= u.n || j < 0 || j >= u.n {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of bounds for %dx%d matrix", i, j, u.n, u.n))
	}
}

// Row returns the stored part of row i, columns [i, n): element k is
// (i, i+k). It aliases the matrix storage, so mutating the returned
// slice mutates the matrix; its capacity ends with the row.
func (u *Upper) Row(i int) []float64 {
	if i < 0 || i >= u.n {
		panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d matrix", i, u.n, u.n))
	}
	o, e := u.offset(i), u.offset(i+1)
	return u.data[o:e:e]
}

// Clone returns a deep copy.
func (u *Upper) Clone() *Upper {
	return &Upper{n: u.n, data: slices.Clone(u.data)}
}

// NormalizeRows scales each row so it sums to 1, leaving all-zero rows
// untouched, exactly as Dense.NormalizeRows does: the entries left of
// the diagonal are zeros, which change neither a row's sum nor its
// quotients.
func (u *Upper) NormalizeRows() {
	for i := 0; i < u.n; i++ {
		row := u.Row(i)
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

// IsRowStochastic reports whether every row sums to 1 within tol and
// every element is non-negative.
func (u *Upper) IsRowStochastic(tol float64) bool {
	for i := 0; i < u.n; i++ {
		var sum float64
		for _, v := range u.Row(i) {
			if v < 0 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > tol {
			return false
		}
	}
	return true
}

// GobEncode implements gob.GobEncoder. It writes the square densePayload
// a Dense of the same values writes, zeros left of the diagonal
// included, so the persisted form does not depend on the packing.
func (u *Upper) GobEncode() ([]byte, error) {
	p := densePayload{Rows: u.n, Cols: u.n, Data: make([]float64, u.n*u.n)}
	for i := 0; i < u.n; i++ {
		copy(p.Data[i*u.n+i:(i+1)*u.n], u.Row(i))
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(p)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. It refuses a payload that is not
// square or holds a nonzero left of the diagonal: such a payload is not
// an upper-triangular matrix, and packing it would drop values.
func (u *Upper) GobDecode(b []byte) error {
	var p densePayload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return err
	}
	n := p.Rows
	if n < 0 || p.Cols != n || n > 0 && len(p.Data)/n != n || len(p.Data) != n*n {
		return fmt.Errorf("matrix: corrupt upper-triangular payload: %dx%d with %d values", p.Rows, p.Cols, len(p.Data))
	}
	out := NewUpper(n)
	for i := 0; i < n; i++ {
		full := p.Data[i*n : (i+1)*n]
		for j, v := range full[:i] {
			if v != 0 {
				return fmt.Errorf("matrix: corrupt upper-triangular payload: (%d, %d) = %v left of the diagonal", i, j, v)
			}
		}
		copy(out.Row(i), full[i:])
	}
	*u = *out
	return nil
}
