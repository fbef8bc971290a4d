package matrix

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestDenseGobRoundTrip(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	var got Dense
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 || got.Cols() != 3 {
		t.Fatalf("decoded %dx%d, want 2x3", got.Rows(), got.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Errorf("(%d,%d) = %v, want %v", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestDenseGobRejectsCorrupt(t *testing.T) {
	cases := map[string]densePayload{
		"short data":    {Rows: 2, Cols: 2, Data: []float64{1, 2, 3}},
		"long data":     {Rows: 1, Cols: 1, Data: []float64{1, 2}},
		"negative rows": {Rows: -1, Cols: -2, Data: []float64{1, 2}},
		// 2^32 × 2^32 wraps to 0 values in int arithmetic.
		"overflowing": {Rows: 1 << 32, Cols: 1 << 32},
	}
	for name, p := range cases {
		var inner bytes.Buffer
		if err := gob.NewEncoder(&inner).Encode(p); err != nil {
			t.Fatal(err)
		}
		var m Dense
		if err := m.GobDecode(inner.Bytes()); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
	var m Dense
	if err := m.GobDecode([]byte("not gob")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestFlatIsRowMajorAlias pins what the similarity-table builds rely on:
// Flat lays row i at [i*Cols, (i+1)*Cols) and writes through to the
// matrix.
func TestFlatIsRowMajorAlias(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	flat := m.Flat()
	if len(flat) != 6 {
		t.Fatalf("len(Flat) = %d, want 6", len(flat))
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if flat[i*m.Cols()+j] != m.At(i, j) {
				t.Errorf("Flat[%d] = %v, want At(%d,%d) = %v", i*m.Cols()+j, flat[i*m.Cols()+j], i, j, m.At(i, j))
			}
		}
	}
	flat[3] = 40
	if m.At(1, 1) != 40 {
		t.Errorf("write through Flat not seen: At(1,1) = %v", m.At(1, 1))
	}
}
