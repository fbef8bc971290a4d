package matrix

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"testing"
)

// upperOf packs the upper triangle of a square d, failing the test if d
// holds a nonzero left of the diagonal.
func upperOf(t *testing.T, d *Dense) *Upper {
	t.Helper()
	if d.Rows() != d.Cols() {
		t.Fatalf("%dx%d matrix is not square", d.Rows(), d.Cols())
	}
	u := NewUpper(d.Rows())
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if j < i {
				if d.At(i, j) != 0 {
					t.Fatalf("(%d,%d) = %v left of the diagonal", i, j, d.At(i, j))
				}
				continue
			}
			u.Set(i, j, d.At(i, j))
		}
	}
	return u
}

// TestUpperPacking pins the layout: row i starts at i·n − i(i−1)/2 and
// holds columns [i, n), so the n×n matrix stores n(n+1)/2 values.
func TestUpperPacking(t *testing.T) {
	const n = 4
	u := NewUpper(n)
	if len(u.data) != n*(n+1)/2 {
		t.Fatalf("stores %d values, want %d", len(u.data), n*(n+1)/2)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, float64(10*i+j))
		}
	}
	// Rows 0..3 start at 0, 4, 7, 9.
	want := []float64{0, 1, 2, 3, 11, 12, 13, 22, 23, 33}
	for k, v := range want {
		if u.data[k] != v {
			t.Fatalf("data = %v, want %v", u.data, want)
		}
	}
	for i := 0; i < n; i++ {
		row := u.Row(i)
		if len(row) != n-i || cap(row) != n-i {
			t.Errorf("row %d has len %d cap %d, want %d", i, len(row), cap(row), n-i)
		}
		for j := 0; j < n; j++ {
			w := 0.0
			if j >= i {
				w = float64(10*i + j)
				if row[j-i] != w {
					t.Errorf("Row(%d)[%d] = %v, want %v", i, j-i, row[j-i], w)
				}
			}
			if got := u.At(i, j); got != w {
				t.Errorf("At(%d, %d) = %v, want %v", i, j, got, w)
			}
		}
	}
}

func TestUpperPanics(t *testing.T) {
	u := NewUpper(3)
	for name, f := range map[string]func(){
		"negative size":  func() { NewUpper(-1) },
		"below diagonal": func() { u.Set(2, 1, 1) },
		"out of bounds":  func() { u.At(0, 3) },
		"row":            func() { u.Row(3) },
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

func TestUpperClone(t *testing.T) {
	u := NewUpper(2)
	u.Set(0, 1, 0.5)
	c := u.Clone()
	c.Set(0, 1, 0.25)
	if u.At(0, 1) != 0.5 || c.At(0, 1) != 0.25 {
		t.Errorf("clone shares storage: %v vs %v", u.At(0, 1), c.At(0, 1))
	}
}

// TestUpperNormalizeMatchesDense checks the packed normalization returns
// the same float64 values as Dense over the full square rows.
func TestUpperNormalizeMatchesDense(t *testing.T) {
	d := mustFromRows(t, [][]float64{
		{0.3, 0.7, 1.1},
		{0, 0, 0}, // all-zero rows are left alone
		{0, 0, 2.9},
	})
	u := upperOf(t, d)
	d.NormalizeRows()
	u.NormalizeRows()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if u.At(i, j) != d.At(i, j) {
				t.Errorf("(%d,%d) = %v, Dense has %v", i, j, u.At(i, j), d.At(i, j))
			}
		}
	}
	if u.IsRowStochastic(1e-12) {
		t.Error("matrix with a zero row reported stochastic")
	}
	u.Set(1, 1, 1)
	if !u.IsRowStochastic(1e-12) {
		t.Error("stochastic matrix rejected")
	}
	u.Set(1, 1, -1)
	u.Set(1, 2, 2)
	if u.IsRowStochastic(1e-12) {
		t.Error("negative entry accepted")
	}
}

// TestUpperGobIsDensePayload pins the persisted form: an Upper encodes to
// exactly the bytes a Dense of the same values does, and a Dense payload
// decodes into the same Upper.
func TestUpperGobIsDensePayload(t *testing.T) {
	d := mustFromRows(t, [][]float64{{0, 0.5, 0.5}, {0, 0.25, 0.75}, {0, 0, 1}})
	u := upperOf(t, d)
	ub, err := u.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ub, db) {
		t.Fatalf("Upper payload differs from the Dense payload:\n%x\n%x", ub, db)
	}
	var got Upper
	if err := got.GobDecode(db); err != nil {
		t.Fatal(err)
	}
	if got.n != 3 || !slices.Equal(got.data, u.data) {
		t.Errorf("decoded %d×%d %v, want %v", got.n, got.n, got.data, u.data)
	}
	var empty Upper
	eb, err := NewUpper(0).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.GobDecode(eb); err != nil || empty.Rows() != 0 {
		t.Errorf("empty round trip: %d rows, %v", empty.Rows(), err)
	}
}

func TestUpperGobRejectsCorrupt(t *testing.T) {
	encode := func(p densePayload) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]densePayload{
		"not square":      {Rows: 1, Cols: 2, Data: []float64{0.5, 0.5}},
		"short data":      {Rows: 2, Cols: 2, Data: []float64{1, 0, 1}},
		"negative":        {Rows: -1, Cols: -1},
		"overflowing":     {Rows: 1 << 32, Cols: 1 << 32},
		"below diagonal":  {Rows: 2, Cols: 2, Data: []float64{1, 0, 0.5, 0.5}},
		"NaN below diag.": {Rows: 2, Cols: 2, Data: []float64{1, 0, math.NaN(), 1}},
	}
	for name, p := range cases {
		var u Upper
		if err := u.GobDecode(encode(p)); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
	var u Upper
	if err := u.GobDecode([]byte{0xff}); err == nil {
		t.Error("undecodable payload accepted")
	}
}
