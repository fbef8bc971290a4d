package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// densePayload is the wire form of a Dense matrix.
type densePayload struct {
	Rows, Cols int
	Data       []float64
}

// GobEncode implements gob.GobEncoder, making Dense matrices persistable
// despite their unexported fields.
func (m *Dense) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(densePayload{Rows: m.rows, Cols: m.cols, Data: m.data})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *Dense) GobDecode(b []byte) error {
	var p densePayload
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return err
	}
	if p.Rows < 0 || p.Cols < 0 || p.Cols > 0 && p.Rows > math.MaxInt/p.Cols || len(p.Data) != p.Rows*p.Cols {
		return fmt.Errorf("matrix: corrupt payload: %dx%d with %d values", p.Rows, p.Cols, len(p.Data))
	}
	m.rows, m.cols, m.data = p.Rows, p.Cols, p.Data
	return nil
}
