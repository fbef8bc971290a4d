package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Float32 is a row-major float32 matrix: the storage half of the compact
// model layout. Probability and feature values live in [0, 1], where
// float32 rounding costs at most a 2^-24 relative error — far inside the
// model's 1e-6 stochastic-validation tolerance — so matrices that do not
// feed bit-identity-sensitive arithmetic (B1, B1', A2, B2, per-video A1)
// can be persisted at half the bytes. Conversion is one rounding each
// way: ToFloat32 rounds float64 values to nearest-even float32, Dense
// widens them back exactly (float32→float64 is lossless).
type Float32 struct {
	rows, cols int
	data       []float32
}

// ToFloat32 quantizes d to a float32 matrix.
func ToFloat32(d *Dense) *Float32 {
	f := &Float32{rows: d.rows, cols: d.cols, data: make([]float32, len(d.data))}
	for i, v := range d.data {
		f.data[i] = float32(v)
	}
	return f
}

// Cols returns the number of columns.
func (f *Float32) Cols() int { return f.cols }

// Dense widens the matrix back to float64 storage (exact).
func (f *Float32) Dense() *Dense {
	d := NewDense(f.rows, f.cols)
	for i, v := range f.data {
		d.data[i] = float64(v)
	}
	return d
}

// MemoryBytes returns the payload size of the value storage.
func (f *Float32) MemoryBytes() int { return len(f.data) * 4 }

// Banded is a float32 matrix that stores only the contiguous non-zero
// span of each row: the compact form of the per-video temporal affinity
// blocks, whose Eq. 1 construction is upper-triangular (row i is zero
// left of the diagonal), so roughly half the dense entries vanish. A
// row's stored span is [start[i], start[i]+width) where width =
// rowptr[i+1]-rowptr[i]; everything outside decodes as zero. Rows that
// are entirely zero store nothing.
type Banded struct {
	rows, cols int
	start      []int32 // per-row first stored column
	rowptr     []int32 // len rows+1; prefix offsets into data
	data       []float32
}

// ToBanded compresses an n×n upper-triangular matrix, read row by row
// (row(i) returns columns [i, n) of row i), by trimming each row's
// leading and trailing zeros. Total stored values must fit in int32
// offsets (>5e8 entries would overflow; per-video A1 blocks are orders
// of magnitude smaller).
func ToBanded(n int, row func(i int) []float64) *Banded {
	b := &Banded{
		rows:   n,
		cols:   n,
		start:  make([]int32, n),
		rowptr: make([]int32, n+1),
	}
	for i := 0; i < n; i++ {
		r := row(i)
		lo, hi := 0, len(r)
		for lo < hi && r[lo] == 0 {
			lo++
		}
		for hi > lo && r[hi-1] == 0 {
			hi--
		}
		b.start[i] = int32(i + lo)
		for _, v := range r[lo:hi] {
			b.data = append(b.data, float32(v))
		}
		b.rowptr[i+1] = int32(len(b.data))
	}
	return b
}

// UpperRows widens the band back to an upper-triangular matrix (exact):
// rows[i] holds columns [i, n) of row i, all rows in one backing array.
// It fails when the band is not square or a row's band starts left of
// the diagonal, where an upper-triangular matrix holds nothing.
func (b *Banded) UpperRows() ([][]float64, error) {
	if b.rows != b.cols {
		return nil, fmt.Errorf("matrix: %dx%d band is not square", b.rows, b.cols)
	}
	n := b.rows
	data := make([]float64, n*(n+1)/2)
	rows := make([][]float64, n)
	o := 0
	for i := range rows {
		if int(b.start[i]) < i {
			return nil, fmt.Errorf("matrix: row %d band starts at column %d, left of the diagonal", i, b.start[i])
		}
		rows[i] = data[o : o+n-i : o+n-i]
		o += n - i
		row := rows[i][int(b.start[i])-i:]
		for k, v := range b.data[b.rowptr[i]:b.rowptr[i+1]] {
			row[k] = float64(v)
		}
	}
	return rows, nil
}

// MemoryBytes returns the payload size: values plus band bookkeeping.
func (b *Banded) MemoryBytes() int {
	return len(b.data)*4 + len(b.start)*4 + len(b.rowptr)*4
}

// float32Payload is the wire form of a Float32 matrix.
type float32Payload struct {
	Rows, Cols int
	Data       []float32
}

// GobEncode implements gob.GobEncoder.
func (f *Float32) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(float32Payload{Rows: f.rows, Cols: f.cols, Data: f.data})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (f *Float32) GobDecode(b []byte) error {
	var p float32Payload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return err
	}
	if p.Rows < 0 || p.Cols < 0 || len(p.Data) != p.Rows*p.Cols {
		return fmt.Errorf("matrix: corrupt float32 payload: %dx%d with %d values", p.Rows, p.Cols, len(p.Data))
	}
	f.rows, f.cols, f.data = p.Rows, p.Cols, p.Data
	return nil
}

// bandedPayload is the wire form of a Banded matrix.
type bandedPayload struct {
	Rows, Cols int
	Start      []int32
	RowPtr     []int32
	Data       []float32
}

// GobEncode implements gob.GobEncoder.
func (b *Banded) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(bandedPayload{
		Rows: b.rows, Cols: b.cols, Start: b.start, RowPtr: b.rowptr, Data: b.data,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (b *Banded) GobDecode(raw []byte) error {
	var p bandedPayload
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
		return err
	}
	if p.Rows < 0 || p.Cols < 0 || len(p.Start) != p.Rows || len(p.RowPtr) != p.Rows+1 {
		return fmt.Errorf("matrix: corrupt banded payload: %dx%d with %d starts, %d offsets",
			p.Rows, p.Cols, len(p.Start), len(p.RowPtr))
	}
	if p.RowPtr[0] != 0 || int(p.RowPtr[p.Rows]) != len(p.Data) {
		return fmt.Errorf("matrix: corrupt banded payload: offsets [%d, %d] for %d values",
			p.RowPtr[0], p.RowPtr[p.Rows], len(p.Data))
	}
	for i := 0; i < p.Rows; i++ {
		width := p.RowPtr[i+1] - p.RowPtr[i]
		if width < 0 || int(p.Start[i])+int(width) > p.Cols || p.Start[i] < 0 {
			return fmt.Errorf("matrix: corrupt banded payload: row %d band [%d, %d) in %d columns",
				i, p.Start[i], int(p.Start[i])+int(width), p.Cols)
		}
	}
	b.rows, b.cols, b.start, b.rowptr, b.data = p.Rows, p.Cols, p.Start, p.RowPtr, p.Data
	return nil
}
