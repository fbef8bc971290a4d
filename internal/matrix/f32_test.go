package matrix

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestFloat32RoundTrip(t *testing.T) {
	d := NewDense(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			d.Set(i, j, float64(i*4+j)/11)
		}
	}
	f := ToFloat32(d)
	if f.rows != 3 || f.cols != 4 {
		t.Fatalf("shape %dx%d, want 3x4", f.rows, f.cols)
	}
	back := f.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			want := float64(float32(d.At(i, j)))
			if back.At(i, j) != want {
				t.Errorf("(%d,%d) = %v, want %v", i, j, back.At(i, j), want)
			}
		}
	}
	if f.MemoryBytes() != 3*4*4 {
		t.Errorf("MemoryBytes = %d, want %d", f.MemoryBytes(), 3*4*4)
	}
}

// upperRow reads the upper triangle of a square d row by row, as
// ToBanded takes it, failing the test if d holds a nonzero left of the
// diagonal.
func upperRow(t *testing.T, d *Dense) func(i int) []float64 {
	t.Helper()
	if d.Rows() != d.Cols() {
		t.Fatalf("%dx%d matrix is not square", d.Rows(), d.Cols())
	}
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < i; j++ {
			if d.At(i, j) != 0 {
				t.Fatalf("(%d,%d) = %v left of the diagonal", i, j, d.At(i, j))
			}
		}
	}
	return func(i int) []float64 { return d.Row(i)[i:] }
}

// widen returns the square matrix a band's UpperRows describe.
func widen(t *testing.T, b *Banded) *Dense {
	t.Helper()
	rows, err := b.UpperRows()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDense(len(rows), len(rows))
	for i, r := range rows {
		if len(r) != len(rows)-i || cap(r) != len(r) {
			t.Fatalf("row %d has len %d cap %d, want %d", i, len(r), cap(r), len(rows)-i)
		}
		copy(d.Row(i)[i:], r)
	}
	return d
}

// TestBandedUpperTriangular covers the layout's target shape: the Eq. 1
// temporal A1 blocks, upper-triangular with a possibly-zero diagonal.
func TestBandedUpperTriangular(t *testing.T) {
	u := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			u.Set(i, j, float64(1+i+j)/10)
		}
	}
	u.Set(0, 0, 0) // leading zero inside the triangle
	b := ToBanded(4, upperRow(t, u))
	if b.rows != 4 || b.cols != 4 {
		t.Fatalf("shape %dx%d, want 4x4", b.rows, b.cols)
	}
	back := widen(t, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := float64(float32(u.At(i, j)))
			if back.At(i, j) != want {
				t.Errorf("(%d,%d) = %v, want %v", i, j, back.At(i, j), want)
			}
		}
	}
	// 4+3+2+1 = 10 full-triangle values minus the trimmed (0,0) zero.
	if got := len(b.data); got != 9 {
		t.Errorf("stored %d values, want 9", got)
	}
	if b.start[0] != 1 || b.start[3] != 3 {
		t.Errorf("band starts %v, want row 0 at 1 and row 3 at 3", b.start)
	}
}

func TestBandedZeroRowsAndEmpty(t *testing.T) {
	u := NewDense(3, 3)
	u.Set(1, 2, 0.5)
	b := ToBanded(3, upperRow(t, u))
	back := widen(t, b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if back.At(i, j) != u.At(i, j) {
				t.Errorf("(%d,%d) = %v, want %v", i, j, back.At(i, j), u.At(i, j))
			}
		}
	}
	if len(b.data) != 1 {
		t.Errorf("stored %d values, want 1", len(b.data))
	}
	e, err := ToBanded(0, nil).UpperRows()
	if err != nil || len(e) != 0 {
		t.Errorf("empty round-trip is %v, %v", e, err)
	}
}

// TestBandedUpperRejects covers the bands no upper-triangular matrix
// holds: a non-square one, and one whose row starts left of the
// diagonal.
func TestBandedUpperRejects(t *testing.T) {
	cases := map[string]*Banded{
		"not square": {rows: 1, cols: 2, start: []int32{0}, rowptr: []int32{0, 1}, data: []float32{1}},
		"left of diagonal": {rows: 2, cols: 2, start: []int32{0, 0},
			rowptr: []int32{0, 2, 4}, data: []float32{0.5, 0.5, 0.5, 0.5}},
	}
	for name, b := range cases {
		if rows, err := b.UpperRows(); err == nil {
			t.Errorf("%s: widened to %v", name, rows)
		}
	}
}

func TestFloat32Gob(t *testing.T) {
	f := ToFloat32(mustFromRows(t, [][]float64{{0.25, 0.5}, {0.75, 1}}))
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	var got Float32
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	back := got.Dense()
	if back.Rows() != 2 || back.Cols() != 2 || back.At(1, 1) != 1 || back.At(0, 0) != 0.25 {
		t.Errorf("decoded %dx%d with (0,0)=%v (1,1)=%v", back.Rows(), back.Cols(), back.At(0, 0), back.At(1, 1))
	}
}

func TestBandedGob(t *testing.T) {
	d := mustFromRows(t, [][]float64{{0, 0.5, 0.5, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	b := ToBanded(4, upperRow(t, d))
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		t.Fatal(err)
	}
	var got Banded
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	back := widen(t, &got)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if back.At(i, j) != d.At(i, j) {
				t.Errorf("(%d,%d) = %v, want %v", i, j, back.At(i, j), d.At(i, j))
			}
		}
	}
}

func TestBandedGobRejectsCorrupt(t *testing.T) {
	encode := func(p bandedPayload) []byte {
		var inner bytes.Buffer
		if err := gob.NewEncoder(&inner).Encode(p); err != nil {
			t.Fatal(err)
		}
		return inner.Bytes()
	}
	cases := map[string]bandedPayload{
		"start count": {Rows: 2, Cols: 2, Start: []int32{0}, RowPtr: []int32{0, 1, 1}, Data: []float32{1}},
		"offset tail": {Rows: 1, Cols: 2, Start: []int32{0}, RowPtr: []int32{0, 2}, Data: []float32{1}},
		"band bounds": {Rows: 1, Cols: 2, Start: []int32{1}, RowPtr: []int32{0, 2}, Data: []float32{1, 1}},
	}
	for name, p := range cases {
		var b Banded
		if err := b.GobDecode(encode(p)); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
}

// mustFromRows builds a matrix from equal-length rows.
func mustFromRows(t *testing.T, rows [][]float64) *Dense {
	t.Helper()
	m := NewDense(len(rows), 0)
	if len(rows) > 0 {
		m = NewDense(len(rows), len(rows[0]))
	}
	for i, r := range rows {
		if len(r) != m.cols {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), m.cols)
		}
		copy(m.Row(i), r)
	}
	return m
}
