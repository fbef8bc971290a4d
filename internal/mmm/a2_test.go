package mmm

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"github.com/videodb/hmmm/internal/matrix"
)

// a2Rows returns the n×n values of a.
func a2Rows(a *A2) [][]float64 {
	out := make([][]float64, a.Rows())
	for i := range out {
		out[i] = make([]float64, a.Rows())
		for j := range out[i] {
			out[i][j] = a.At(i, j)
		}
	}
	return out
}

// TestBuildAffinityAStoresOnlyObservedRows pins what A2 holds: nothing
// but u before feedback, and after it exactly the rows a pattern uses,
// back to back in a backing array of their own size.
func TestBuildAffinityAStoresOnlyObservedRows(t *testing.T) {
	a, err := BuildAffinityA(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.rows != nil || a.u != 0.25 {
		t.Errorf("untrained A2 holds u %v and rows %v", a.u, a.rows)
	}
	a, err = BuildAffinityA([]AccessPattern{{States: []int{3, 1}, Freq: 2}, {States: []int{0}, Freq: -1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, false, true} {
		if stored := a.Explicit(i) != nil; stored != want {
			t.Errorf("row %d stored = %v, want %v", i, stored, want)
		}
	}
	if gap := uintptr(unsafe.Pointer(&a.rows[3][0])) - uintptr(unsafe.Pointer(&a.rows[1][0])); gap != 4*8 || cap(a.rows[3]) != 4 {
		t.Errorf("row 3 starts %d bytes after row 1 with capacity %d, want right after its 4 values", gap, cap(a.rows[3]))
	}
}

// TestA2ReadersAgree checks At, Row, Explicit and Dense read the same
// values, on an untrained and a trained matrix.
func TestA2ReadersAgree(t *testing.T) {
	untrained, err := BuildAffinityA(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := BuildAffinityA([]AccessPattern{{States: []int{0, 2}, Freq: 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*A2{untrained, trained} {
		d := a.Dense()
		buf := make([]float64, 1)
		for i := 0; i < a.Rows(); i++ {
			row := a.Row(i, buf)
			if len(row) != a.Rows() {
				t.Fatalf("Row(%d) has %d values", i, len(row))
			}
			for j, v := range row {
				if v != a.At(i, j) || v != d.At(i, j) {
					t.Errorf("(%d, %d): Row %v, At %v, Dense %v", i, j, v, a.At(i, j), d.At(i, j))
				}
				if r := a.Explicit(i); r != nil && r[j] != v {
					t.Errorf("Explicit(%d)[%d] = %v, Row %v", i, j, r[j], v)
				}
			}
		}
	}
	if got := a2Rows(trained); !reflect.DeepEqual(got, [][]float64{{0.5, 0, 0.5}, {1.0 / 3, 1.0 / 3, 1.0 / 3}, {0.5, 0, 0.5}}) {
		t.Errorf("trained A2 reads %v", got)
	}
}

func TestA2Panics(t *testing.T) {
	a, err := BuildAffinityA([]AccessPattern{{States: []int{0}, Freq: 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"column":          func() { a.At(0, 2) },
		"negative row":    func() { a.At(-1, 0) },
		"explicit row":    func() { a.Explicit(2) },
		"empty A2 row":    func() { new(A2).Explicit(0) },
		"negative column": func() { a.At(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestA2Clone checks a clone is equal and shares no storage.
func TestA2Clone(t *testing.T) {
	a, err := BuildAffinityA([]AccessPattern{{States: []int{1, 2}, Freq: 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	if !reflect.DeepEqual(c, a) {
		t.Fatalf("clone %+v differs from %+v", c, a)
	}
	if &c.rows[1][0] == &a.rows[1][0] {
		t.Error("clone shares storage")
	}
	if e := new(A2).Clone(); e.Rows() != 0 {
		t.Errorf("empty clone has %d rows", e.Rows())
	}
}

// TestA2Restrict: a restriction keeps the parent's values and u, and
// stores a restricted row only where it differs from u.
func TestA2Restrict(t *testing.T) {
	a, err := BuildAffinityA([]AccessPattern{{States: []int{0, 3}, Freq: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := a.Restrict([]int{3, 1})
	want := [][]float64{{0.5, 0}, {0.25, 0.25}}
	if got := a2Rows(sub); !reflect.DeepEqual(got, want) {
		t.Errorf("restriction reads %v, want %v", got, want)
	}
	if sub.u != 0.25 || sub.Explicit(0) == nil || sub.Explicit(1) != nil {
		t.Errorf("restriction holds u %v and rows %v", sub.u, sub.rows)
	}
	if sub := a.Restrict([]int{1, 2}); sub.rows != nil {
		t.Errorf("unobserved rows stored: %v", sub.rows)
	}
	if sub := a.Restrict([]int{0, 1, 2}); sub.Explicit(0) == nil || !reflect.DeepEqual(sub.Row(0, nil), []float64{0.5, 0, 0}) {
		t.Errorf("restricted observed row %v", sub.Row(0, nil))
	}
}

// TestA2FromDenseStoresOnlyDifferingRows: a dense matrix is held as the
// value the most rows are constant at plus the other rows — at 1/n for
// exact values, at the float32-rounded 1/n for a compact record's.
func TestA2FromDenseStoresOnlyDifferingRows(t *testing.T) {
	built, err := BuildAffinityA([]AccessPattern{{States: []int{1, 2}, Freq: 1}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := A2FromDense(built.Dense())
	if err != nil || !reflect.DeepEqual(got, built) {
		t.Errorf("dense round trip %+v (%v), want %+v", got, err, built)
	}
	q := built.Dense()
	for i := 0; i < q.Rows(); i++ {
		for j, v := range q.Row(i) {
			q.Set(i, j, float64(float32(v)))
		}
	}
	got, err = A2FromDense(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.u != float64(float32(0.2)) {
		t.Errorf("compact values hold u %v, want %v", got.u, float64(float32(0.2)))
	}
	for i := 0; i < got.Rows(); i++ {
		if stored := got.Explicit(i) != nil; stored != (i == 1 || i == 2) {
			t.Errorf("row %d stored = %v", i, stored)
		}
	}
	if !reflect.DeepEqual(a2Rows(got), func() [][]float64 {
		rows := make([][]float64, q.Rows())
		for i := range rows {
			rows[i] = q.Row(i)
		}
		return rows
	}()) {
		t.Errorf("compact values read %v", a2Rows(got))
	}
	// A tie: rows 0 and 3 are constant at 0.25, rows 1 and 2 at 0.5,
	// which reaches the count of 2 first.
	lo, hi := []float64{0.25, 0.25, 0.25, 0.25}, []float64{0.5, 0.5, 0.5, 0.5}
	tie := denseOf([][]float64{lo, hi, hi, lo})
	if got, err := A2FromDense(tie); err != nil || got.u != 0.5 || got.Explicit(0) == nil || got.Explicit(1) != nil {
		t.Errorf("tie resolved to %+v (%v), want u 0.5 and rows 0 and 3 stored", got, err)
	}
	if _, err := A2FromDense(matrix.NewDense(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
	if e, err := A2FromDense(matrix.NewDense(0, 0)); err != nil || e.Rows() != 0 {
		t.Errorf("empty matrix: %+v, %v", e, err)
	}
}

// TestA2GobIsDensePayload pins the persisted form: a matrix encodes to
// exactly the bytes a matrix.Dense of the same values does, and decodes
// to the same matrix.
func TestA2GobIsDensePayload(t *testing.T) {
	a, err := BuildAffinityA([]AccessPattern{{States: []int{0, 1}, Freq: 2}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := denseOf(a2Rows(a)).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, db) {
		t.Fatalf("A2 payload differs from the Dense payload:\n%x\n%x", ab, db)
	}
	var got A2
	if err := got.GobDecode(db); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, a) {
		t.Errorf("decoded %+v, want %+v", got, a)
	}
}

func TestA2GobRejectsCorrupt(t *testing.T) {
	type densePayload struct {
		Rows, Cols int
		Data       []float64
	}
	cases := map[string]densePayload{
		"not square":  {Rows: 1, Cols: 2, Data: []float64{0.5, 0.5}},
		"short data":  {Rows: 2, Cols: 2, Data: []float64{1, 0, 1}},
		"negative":    {Rows: -1, Cols: -1},
		"overflowing": {Rows: 1 << 32, Cols: 1 << 32},
	}
	for name, p := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		var a A2
		if err := a.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
	var a A2
	if err := a.GobDecode([]byte{0xff}); err == nil {
		t.Error("undecodable payload accepted")
	}
}

// TestA2RefusesNaNRow: a row holding NaN sums to NaN, which is within
// no tolerance of 1, whether the row is stored or is u.
func TestA2RefusesNaNRow(t *testing.T) {
	a2, err := A2FromDense(denseOf([][]float64{{math.NaN(), 0.5}, {0.5, 0.5}}))
	if err != nil {
		t.Fatal(err)
	}
	if a2.IsRowStochastic(1e-6) {
		t.Error("A2 with a NaN row reported stochastic")
	}
	if a2, _ := A2FromDense(denseOf([][]float64{{math.NaN()}})); a2.IsRowStochastic(math.Inf(1)) {
		t.Error("A2 with u = NaN reported stochastic")
	}
}

// FuzzA2Canonical draws a size, a set of rows to perturb, a column and a
// bit, and checks A2FromDense over the uniform matrix with one bit of
// each perturbed row flipped, over exact and float32-rounded 1/n: every
// (i, j) reads the dense input's bits, exactly the perturbed rows are
// stored (a 1-wide row is constant, so it never is), the matrix
// survives a gob round trip and a restriction unchanged, and an
// unperturbed exact matrix is BuildAffinityA's untrained one.
func FuzzA2Canonical(f *testing.F) {
	f.Add(uint8(3), uint64(0), uint8(0), uint8(0), false)
	f.Add(uint8(5), uint64(0b10110), uint8(2), uint8(51), false)
	f.Add(uint8(1), uint64(1), uint8(0), uint8(63), true)
	f.Add(uint8(64), uint64(1<<63|1), uint8(9), uint8(7), true)
	f.Fuzz(func(t *testing.T, size uint8, flips uint64, col, bit uint8, compact bool) {
		n := 1 + int(size%64)
		u := 1 / float64(n)
		if compact {
			u = float64(float32(u))
		}
		d := matrix.NewDense(n, n)
		d.Fill(u)
		for i := 0; i < n; i++ {
			if flips&(1<<i) != 0 {
				j := (i + int(col)) % n
				d.Set(i, j, math.Float64frombits(math.Float64bits(u)^1<<(bit%64)))
			}
		}
		got, err := A2FromDense(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(d.At(i, j)) {
					t.Fatalf("(%d, %d) reads %v, dense input %v", i, j, got.At(i, j), d.At(i, j))
				}
			}
			if stored, flipped := got.Explicit(i) != nil, flips&(1<<i) != 0 && n > 1; stored != flipped {
				t.Fatalf("row %d stored = %v, perturbed = %v", i, stored, flipped)
			}
		}
		b, err := got.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var back A2
		if err := back.GobDecode(b); err != nil || !reflect.DeepEqual(&back, got) {
			t.Fatalf("gob round trip %+v (%v), want %+v", back, err, got)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		if sub := got.Restrict(idx); !reflect.DeepEqual(sub, got) {
			t.Fatalf("identity restriction %+v, want %+v", sub, got)
		}
		if !compact && flips&(1<<n-1) == 0 {
			if want, _ := BuildAffinityA(nil, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("unperturbed matrix %+v is not BuildAffinityA's %+v", got, want)
			}
		}
	})
}
