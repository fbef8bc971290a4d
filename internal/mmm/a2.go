package mmm

import (
	"fmt"
	"math"
	"slices"

	"github.com/videodb/hmmm/internal/matrix"
)

// A2 is the video-level affinity matrix of Eqs. 5-6: n×n, one row and
// one column per video. A row no marked pattern uses holds the same
// value u in every column (1/n for a full model; a shard keeps its
// parent's 1/n), so A2 is held as u plus the rows whose values differ
// from it. A matrix is never modified once built, so trained models
// replace it and shards restrict it.
type A2 struct {
	n int
	u float64
	// rows is nil when no row is stored; otherwise rows[i] holds row i
	// where it differs from u and is nil where it reads u. The stored
	// rows share one backing array of exactly their size.
	rows [][]float64
}

// storeA2 returns the n×n matrix whose row i reads row(i, dst), dst
// being scratch of n values, or u in every column where row returns
// nil. Only the rows whose bits differ from u are stored, in one backing
// array of exactly their size: a first pass finds them and a second
// calls row again for each, so row must give the same values each time.
func storeA2(n int, u float64, row func(i int, dst []float64) []float64) *A2 {
	a := &A2{n: n, u: u}
	dst := make([]float64, n)
	var stored []int
	for i := 0; i < n; i++ {
		if r := row(i, dst); r != nil && !allBits(r, u) {
			stored = append(stored, i)
		}
	}
	if stored == nil {
		return a
	}
	data := make([]float64, len(stored)*n)
	a.rows = make([][]float64, n)
	for k, i := range stored {
		a.rows[i] = data[k*n : (k+1)*n : (k+1)*n]
		copy(a.rows[i], row(i, dst))
	}
	return a
}

// allBits reports whether every value of r has the bits of u.
func allBits(r []float64, u float64) bool {
	b := math.Float64bits(u)
	for _, v := range r {
		if math.Float64bits(v) != b {
			return false
		}
	}
	return true
}

// A2FromDense returns the matrix with d's values: u is the value the
// most rows of d hold in every column (the first value to reach that
// count on a tie; 1/n when no row is constant), and the rows differing
// from it are stored. Every decoded matrix takes this form, so a "model"
// record (exact values) and a "cmodel" record (float32-rounded ones)
// both load to their uniform value plus the rows feedback observed. A
// non-square d is refused.
func A2FromDense(d *matrix.Dense) (*A2, error) {
	n := d.Rows()
	if d.Cols() != n {
		return nil, fmt.Errorf("mmm: A2 is %dx%d, not square", n, d.Cols())
	}
	u := 1 / float64(n)
	best, count := 0, map[uint64]int{}
	for i := 0; i < n; i++ {
		r := d.Row(i)
		if allBits(r, r[0]) {
			b := math.Float64bits(r[0])
			if count[b]++; count[b] > best {
				best, u = count[b], r[0]
			}
		}
	}
	return storeA2(n, u, func(i int, _ []float64) []float64 { return d.Row(i) }), nil
}

// Rows returns the number of rows (the matrix is square).
func (a *A2) Rows() int { return a.n }

// At returns the element at (i, j).
func (a *A2) At(i, j int) float64 {
	if j < 0 || j >= a.n {
		panic(fmt.Sprintf("mmm: index (%d, %d) out of bounds for %dx%d A2", i, j, a.n, a.n))
	}
	if r := a.Explicit(i); r != nil {
		return r[j]
	}
	return a.u
}

// Explicit returns row i when it is stored, nil when it reads u in
// every column. The slice must not be modified.
func (a *A2) Explicit(i int) []float64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("mmm: row %d out of bounds for %dx%d A2", i, a.n, a.n))
	}
	if a.rows == nil {
		return nil
	}
	return a.rows[i]
}

// Row writes row i into dst, replacing dst when it has room for fewer
// than n values, and returns it.
func (a *A2) Row(i int, dst []float64) []float64 {
	r := a.Explicit(i)
	dst = slices.Grow(dst[:0], a.n)[:a.n]
	if r != nil {
		copy(dst, r)
		return dst
	}
	for k := range dst {
		dst[k] = a.u
	}
	return dst
}

// IsRowStochastic reports whether every row sums to 1 within tol and
// every element is non-negative. NaN fails both tests.
func (a *A2) IsRowStochastic(tol float64) bool {
	buf := make([]float64, a.n)
	for i := 0; i < a.n; i++ {
		if !matrix.Stochastic(a.Row(i, buf), tol) {
			return false
		}
	}
	return true
}

// Restrict returns the matrix over the videos idx, in that order: entry
// (k, l) is a's (idx[k], idx[l]). The values are kept verbatim, not
// renormalized, and so is u, which a restricted row not stored in a
// reads.
func (a *A2) Restrict(idx []int) *A2 {
	return storeA2(len(idx), a.u, func(k int, dst []float64) []float64 {
		r := a.Explicit(idx[k])
		if r == nil {
			return nil
		}
		for l, j := range idx {
			dst[l] = r[j]
		}
		return dst
	})
}

// Clone returns a deep copy.
func (a *A2) Clone() *A2 {
	return storeA2(a.n, a.u, func(i int, _ []float64) []float64 { return a.Explicit(i) })
}

// Dense widens the matrix to a square matrix.Dense: the form it is
// persisted and exported in.
func (a *A2) Dense() *matrix.Dense {
	d := matrix.NewDense(a.n, a.n)
	for i := 0; i < a.n; i++ {
		a.Row(i, d.Row(i))
	}
	return d
}

// GobEncode implements gob.GobEncoder. It writes the payload a
// matrix.Dense of the same values writes, so the persisted form does not
// depend on how the matrix is held.
func (a *A2) GobEncode() ([]byte, error) { return a.Dense().GobEncode() }

// GobDecode implements gob.GobDecoder. It refuses what a matrix.Dense
// refuses and a payload that is not square, and holds the values as
// A2FromDense does.
func (a *A2) GobDecode(b []byte) error {
	var d matrix.Dense
	if err := d.GobDecode(b); err != nil {
		return err
	}
	c, err := A2FromDense(&d)
	if err != nil {
		return err
	}
	*a = *c
	return nil
}
