package mmm

import (
	"fmt"
	"math"
	"slices"

	"github.com/videodb/hmmm/internal/matrix"
)

// A1 is one video's shot-level transition block: n×n and
// upper-triangular, since Eq. 1 sets A1(m,n) only where T_m ≤ T_n. It is
// held as the Eq. 1 generator InitTemporalA keeps — one int32 suffix
// count per state — plus the rows whose values differ from it: the rows
// Eq. 2 feedback rewrote, and every row of a block decoded without its
// generator until Canonical gives it one. A block is never modified once
// built, so models, their shards and their trained copies share blocks.
// The zero A1 is the empty 0×0 block.
//
// In every column t, the generated entries A1(s, t), s < t, do not fall
// as s rises: their numerator is NE(s_t), their denominator falls with
// s, and IEEE division is monotone in a positive divisor.
type A1 struct {
	n int
	// suf[i] = S_i = Σ_{k≥i} NE(s_k) for i ≤ n, so S_n = 0: column j's
	// Eq. 1 numerator is S_j − S_{j+1} and row i's denominator is
	// S_i − 1. nil when the block has no generator and every row is
	// explicit.
	suf []int32
	// rows is nil when no row is explicit; otherwise rows[i] holds
	// columns [i, n) of row i where that row is explicit, and is nil
	// where it is generated.
	rows [][]float64
}

// FromRows returns the block whose row i holds rows[i] as columns
// [i, n), every row explicit and no generator: the form a decoded block
// takes until Canonical. The block keeps rows, which the caller must
// not modify afterwards.
func FromRows(rows [][]float64) (*A1, error) {
	n := len(rows)
	for i, r := range rows {
		if len(r) != n-i {
			return nil, fmt.Errorf("mmm: A1 row %d holds %d values, want %d", i, len(r), n-i)
		}
	}
	if n == 0 {
		return &A1{}, nil
	}
	return &A1{n: n, rows: rows}, nil
}

// Rows returns the number of rows (the block is square).
func (a *A1) Rows() int { return a.n }

// At returns the element at (i, j): 0 left of the diagonal.
func (a *A1) At(i, j int) float64 {
	if i < 0 || i >= a.n || j < 0 || j >= a.n {
		panic(fmt.Sprintf("mmm: index (%d, %d) out of bounds for %dx%d A1 block", i, j, a.n, a.n))
	}
	if j < i {
		return 0
	}
	if r := a.Explicit(i); r != nil {
		return r[j-i]
	}
	if j == i {
		return a.genDiag(i)
	}
	return a.gen(i, j)
}

// Next returns A1(i, j) for j > i, a read that always steps forward in
// time. Column j ≤ i is not checked.
func (a *A1) Next(i, j int) float64 { return a.NextRow(i).At(j - i) }

// A1Row reads row i of a block right of its diagonal. The lattice takes
// it once per cell, out of its per-edge loop, so the read per edge is a
// load or one subtraction and one division, small enough to inline
// there.
type A1Row struct {
	// row holds the stored row from column i on, nil when Eq. 1
	// generates it from suf, the suffix counts from S_i on, over den,
	// S_i − 1.
	row []float64
	suf []int32
	den float64
}

// NextRow returns the reader of row i.
func (a *A1) NextRow(i int) A1Row {
	if r := a.Explicit(i); r != nil {
		return A1Row{row: r}
	}
	return A1Row{suf: a.suf[i:], den: float64(a.suf[i] - 1)}
}

// At returns A1(i, i+k) for k ≥ 1, with the bits gen gives a generated
// row. k = 0, the diagonal, is not checked.
func (r A1Row) At(k int) float64 {
	if r.row != nil {
		return r.row[k]
	}
	return float64(r.suf[k]-r.suf[k+1]) / r.den
}

// Explicit returns columns [i, n) of row i when the row is stored, nil
// when Eq. 1 generates it. The slice must not be modified.
func (a *A1) Explicit(i int) []float64 {
	if a.rows == nil {
		// A block storing no row has a generator or is empty, so this
		// is the bounds check.
		_ = a.suf[:a.n][i]
		return nil
	}
	return a.rows[i]
}

// Row writes columns [i, n) of row i into dst, replacing dst when it
// has room for fewer than n−i values, and returns them.
func (a *A1) Row(i int, dst []float64) []float64 {
	r := a.Explicit(i)
	dst = slices.Grow(dst[:0], a.n-i)[:a.n-i]
	if r != nil {
		copy(dst, r)
		return dst
	}
	dst[0] = a.genDiag(i)
	for k := 1; k < len(dst); k++ {
		dst[k] = a.gen(i, i+k)
	}
	return dst
}

// IsRowStochastic reports whether every row sums to 1 within tol and
// every element is non-negative. NaN fails both tests.
func (a *A1) IsRowStochastic(tol float64) bool {
	buf := make([]float64, a.n)
	for i := 0; i < a.n; i++ {
		if !matrix.Stochastic(a.Row(i, buf), tol) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (a *A1) Clone() *A1 {
	c := &A1{n: a.n, suf: slices.Clone(a.suf)}
	if a.rows != nil {
		c.rows = make([][]float64, a.n)
		for i, r := range a.rows {
			c.rows[i] = slices.Clone(r)
		}
	}
	return c
}

// Canonical returns the block with a's values over the Eq. 1 generator
// of the annotation counts ne, storing only the rows whose bits differ
// from the generated ones. A block that already has a generator is
// returned as it is: only InitTemporalA makes one, and every block built
// on it stores exactly its differing rows. So is a block when ne is not a
// valid count vector of its size; it keeps every row explicit.
func (a *A1) Canonical(ne []int) *A1 {
	if a.suf != nil || len(ne) != a.n {
		return a
	}
	g, err := InitTemporalA(ne)
	if err != nil {
		return a
	}
	return g.rewrite(func(i int, _ []float64) []float64 { return a.rows[i] })
}

// rewrite returns the block over g's generator whose row i reads as
// row(i, dst), dst being scratch of n−i values. g stores no row. Only the
// rows whose bits differ from the generated row are stored (without a
// generator, every row is), in one backing array of exactly their size.
func (g *A1) rewrite(row func(i int, dst []float64) []float64) *A1 {
	n := g.n
	out := &A1{n: n, suf: g.suf}
	dst, genBuf := make([]float64, n), make([]float64, n)
	var tri []float64 // stored rows at their packed offsets i·n − i(i−1)/2
	size, o := 0, 0
	for i := 0; i < n; i++ {
		w := n - i
		if r := row(i, dst[:w]); g.suf == nil || !sameBits(r, g.Row(i, genBuf)) {
			if tri == nil {
				tri, out.rows = make([]float64, n*(n+1)/2), make([][]float64, n)
			}
			out.rows[i] = tri[o : o+w : o+w]
			copy(out.rows[i], r)
			size += w
		}
		o += w
	}
	if size < len(tri) {
		data := make([]float64, 0, size)
		for i, r := range out.rows {
			if r != nil {
				k := len(data)
				data = append(data, r...)
				out.rows[i] = data[k:len(data):len(data)]
			}
		}
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// GobEncode implements gob.GobEncoder. It writes the square payload a
// matrix.Dense of the same values writes, zeros left of the diagonal
// included, so the persisted form does not depend on how a block is
// held.
func (a *A1) GobEncode() ([]byte, error) {
	d := matrix.NewDense(a.n, a.n)
	for i := 0; i < a.n; i++ {
		a.Row(i, d.Row(i)[i:])
	}
	return d.GobEncode()
}

// GobDecode implements gob.GobDecoder. It refuses a payload that is not
// square or holds a nonzero left of the diagonal: such a payload is not
// an A1 block. Every decoded row is explicit; Canonical restores the
// generator.
func (a *A1) GobDecode(b []byte) error {
	var d matrix.Dense
	if err := d.GobDecode(b); err != nil {
		return err
	}
	n := d.Rows()
	if d.Cols() != n {
		return fmt.Errorf("mmm: corrupt A1 payload: %dx%d is not square", n, d.Cols())
	}
	data := make([]float64, 0, n*(n+1)/2)
	rows := make([][]float64, n)
	for i := range rows {
		full := d.Row(i)
		for j, v := range full[:i] {
			if v != 0 {
				return fmt.Errorf("mmm: corrupt A1 payload: (%d, %d) = %v left of the diagonal", i, j, v)
			}
		}
		o := len(data)
		data = append(data, full[i:]...)
		rows[i] = data[o:len(data):len(data)]
	}
	blk, _ := FromRows(rows) // row i holds n−i values by construction
	*a = *blk
	return nil
}
