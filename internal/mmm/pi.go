package mmm

import (
	"bytes"
	"encoding/gob"
	"slices"
)

// Pi is an initial-state distribution over n states (Eq. 4). Until
// training writes it, every entry holds one value u (1/n for a full
// model; a shard keeps its parent's 1/n), so Pi is held as u alone
// until then and as its n values after. A distribution is never
// modified once built, so trained models replace it and shards restrict
// it.
type Pi struct {
	n int
	u float64
	// p is nil while every entry reads u; otherwise it holds the n
	// values.
	p []float64
}

// UniformPi returns the distribution holding 1/n in every entry.
func UniformPi(n int) *Pi { return &Pi{n: n, u: 1 / float64(n)} }

// NewPi returns the distribution with the values p: u alone when every
// value has the bits of the first, p itself otherwise. The caller must
// not modify p afterwards.
func NewPi(p []float64) *Pi {
	if len(p) > 0 && allBits(p, p[0]) {
		return &Pi{n: len(p), u: p[0]}
	}
	return &Pi{n: len(p), p: p}
}

// Len returns the number of states.
func (p *Pi) Len() int { return p.n }

// At returns entry i.
func (p *Pi) At(i int) float64 {
	if p.p == nil && uint(i) < uint(p.n) {
		return p.u
	}
	return p.p[i] // a stored entry, or the out-of-range panic
}

// Values returns the n values in a slice of their own.
func (p *Pi) Values() []float64 {
	if p.p != nil {
		return slices.Clone(p.p)
	}
	out := make([]float64, p.n)
	for i := range out {
		out[i] = p.u
	}
	return out
}

// Restrict returns the distribution over the states idx, in that order:
// entry k is p's idx[k], kept verbatim, not renormalized.
func (p *Pi) Restrict(idx []int) *Pi {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = p.At(i)
	}
	return NewPi(out)
}

// Clone returns a deep copy.
func (p *Pi) Clone() *Pi { return &Pi{n: p.n, u: p.u, p: slices.Clone(p.p)} }

// GobEncode implements gob.GobEncoder. It writes the n values, so the
// encoded form does not depend on how the distribution is held.
func (p *Pi) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(p.Values())
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder, holding the values as NewPi does.
func (p *Pi) GobDecode(b []byte) error {
	var v []float64
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return err
	}
	*p = *NewPi(v)
	return nil
}
