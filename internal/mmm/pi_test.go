package mmm

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// TestPiHoldsUniformAsOneValue: a uniform distribution, built or read
// from values, stores no entry; one that differs stores all n.
func TestPiHoldsUniformAsOneValue(t *testing.T) {
	u := UniformPi(4)
	if u.p != nil || u.Len() != 4 || u.At(3) != 0.25 {
		t.Errorf("UniformPi(4) = %+v", u)
	}
	if v := NewPi([]float64{0.25, 0.25, 0.25, 0.25}); !reflect.DeepEqual(v, u) {
		t.Errorf("NewPi of four quarters = %+v, want %+v", v, u)
	}
	vals := []float64{0.5, 0.25, 0.125, 0.125}
	p := NewPi(vals)
	if &p.p[0] != &vals[0] {
		t.Error("NewPi copied the values it keeps")
	}
	for i, v := range vals {
		if p.At(i) != v {
			t.Errorf("At(%d) = %v, want %v", i, p.At(i), v)
		}
	}
	if got := p.Values(); !reflect.DeepEqual(got, vals) || &got[0] == &vals[0] {
		t.Errorf("Values = %v, want a copy of %v", got, vals)
	}
}

// TestPiAtPanicsOutOfRange: a uniform distribution bounds-checks its
// index as a stored one does.
func TestPiAtPanicsOutOfRange(t *testing.T) {
	for _, p := range []*Pi{UniformPi(3), NewPi([]float64{0.5, 0.25, 0.25})} {
		for _, i := range []int{-1, 3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("At(%d) on %+v did not panic", i, p)
					}
				}()
				p.At(i)
			}()
		}
	}
}

// TestPiRestrictKeepsValuesVerbatim: a shard's Π1 keeps its parent's
// values, 1/n of the parent's n included, without renormalizing.
func TestPiRestrictKeepsValuesVerbatim(t *testing.T) {
	u := UniformPi(5).Restrict([]int{1, 3})
	if u.p != nil || u.Len() != 2 || u.At(0) != 0.2 {
		t.Errorf("restricted uniform = %+v, want two entries of 1/5", u)
	}
	p := NewPi([]float64{0.5, 0.25, 0.125, 0.125}).Restrict([]int{0, 2})
	if !reflect.DeepEqual(p.Values(), []float64{0.5, 0.125}) {
		t.Errorf("restricted values = %v, want [0.5 0.125]", p.Values())
	}
}

// TestPiGobRoundTrip: decoding holds the encoded values as NewPi does,
// whichever way they were held.
func TestPiGobRoundTrip(t *testing.T) {
	for _, want := range []*Pi{UniformPi(3), NewPi([]float64{0.5, 0.25, 0.25}), NewPi([]float64{math.NaN(), 1})} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		got := new(Pi)
		if err := gob.NewDecoder(&buf).Decode(got); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Values(), want.Values()) || (got.p == nil) != (want.p == nil) {
			t.Errorf("round trip of %+v gave %+v", want, got)
		}
	}
}

// TestInitTemporalARefusesCountOverflow: the suffix counts are int32,
// so counts summing past 2³¹ − 1 are refused, not wrapped.
func TestInitTemporalARefusesCountOverflow(t *testing.T) {
	if _, err := InitTemporalA([]int{math.MaxInt32, 1}); err == nil {
		t.Error("counts summing to 2^31 accepted")
	}
	if _, err := InitTemporalA([]int{math.MaxInt32 - 1, 1}); err != nil {
		t.Errorf("counts summing to 2^31-1 refused: %v", err)
	}
}
