package mmm

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/xrand"
)

// fullRows returns the n×n values of a, zeros left of the diagonal
// included.
func fullRows(a *A1) [][]float64 {
	out := make([][]float64, a.Rows())
	for i := range out {
		out[i] = make([]float64, a.Rows())
		for j := range out[i] {
			out[i][j] = a.At(i, j)
		}
	}
	return out
}

// decoded returns the block a gob round trip of full rows gives: every
// row stored, no generator.
func decoded(t testing.TB, rows [][]float64) *A1 {
	t.Helper()
	stored := make([][]float64, len(rows))
	for i, r := range rows {
		stored[i] = append([]float64(nil), r[i:]...)
	}
	a, err := FromRows(stored)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestInitTemporalAStoresNoRow pins what a built block holds: one suffix
// count per state, a closing zero and no row, however large the block.
func TestInitTemporalAStoresNoRow(t *testing.T) {
	a, err := InitTemporalA([]int{2, 1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.rows != nil {
		t.Errorf("stores rows %v", a.rows)
	}
	// NE = [2, 1, 3, 1]: suffix sums [7, 5, 4, 1], then S_4 = 0.
	if !reflect.DeepEqual(a.suf, []int32{7, 5, 4, 1, 0}) {
		t.Errorf("generator suffix counts %v", a.suf)
	}
	for i := 0; i < a.Rows(); i++ {
		if a.Explicit(i) != nil {
			t.Errorf("row %d is stored", i)
		}
	}
}

// TestA1ReadersAgree checks At, Next, NextRow and Row read the same values, on a
// generated block and on one with a stored row.
func TestA1ReadersAgree(t *testing.T) {
	gen, err := InitTemporalA([]int{1, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := fullRows(gen)
	rows[1][2], rows[1][3] = 0.25, 0.75
	for _, a := range []*A1{gen, decoded(t, rows).Canonical([]int{1, 2, 1, 3})} {
		buf := make([]float64, a.Rows())
		for i := 0; i < a.Rows(); i++ {
			row := a.Row(i, buf)
			if len(row) != a.Rows()-i {
				t.Fatalf("Row(%d) has %d values", i, len(row))
			}
			for j := i; j < a.Rows(); j++ {
				if row[j-i] != a.At(i, j) {
					t.Errorf("Row(%d)[%d] = %v, At = %v", i, j-i, row[j-i], a.At(i, j))
				}
				if j > i && (a.Next(i, j) != a.At(i, j) || a.NextRow(i).At(j-i) != a.At(i, j)) {
					t.Errorf("Next(%d, %d) = %v, NextRow = %v, At = %v", i, j, a.Next(i, j), a.NextRow(i).At(j-i), a.At(i, j))
				}
			}
		}
	}
	if got := decoded(t, rows).Canonical([]int{1, 2, 1, 3}); got.At(1, 3) != 0.75 || got.Explicit(1) == nil || got.Explicit(0) != nil {
		t.Errorf("rewritten row 1 reads %v, stored %v; row 0 stored %v", got.At(1, 3), got.Explicit(1), got.Explicit(0))
	}
	// A short buffer is replaced, not overrun.
	if row := gen.Row(0, nil); len(row) != 4 || row[0] != gen.At(0, 0) {
		t.Errorf("Row(0, nil) = %v", row)
	}
}

func TestA1Panics(t *testing.T) {
	a, err := InitTemporalA([]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"out of bounds":    func() { a.At(0, 3) },
		"negative":         func() { a.At(-1, 0) },
		"explicit row":     func() { a.Explicit(3) },
		"empty block row":  func() { new(A1).Explicit(0) },
		"stored block row": func() { decoded(t, fullRows(a)).Explicit(3) },
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

// TestA1Clone checks a clone reads the same and shares no storage.
func TestA1Clone(t *testing.T) {
	gen, err := InitTemporalA([]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := fullRows(gen)
	rows[0][1], rows[0][2] = 0, 1
	a := decoded(t, rows).Canonical([]int{2, 1, 1})
	c := a.Clone()
	if !reflect.DeepEqual(c, a) {
		t.Fatalf("clone %+v differs from %+v", c, a)
	}
	if &c.suf[0] == &a.suf[0] || &c.rows[0][0] == &a.rows[0][0] {
		t.Error("clone shares storage")
	}
	if e := new(A1).Clone(); e.Rows() != 0 {
		t.Errorf("empty clone has %d rows", e.Rows())
	}
}

// TestCanonicalStoresOnlyDifferingRows covers Canonical's cases: a
// generated block decoded from its full rows stores nothing again, a
// changed row is kept, a block with a generator is returned as it is,
// and counts that cannot generate the block leave every row stored.
func TestCanonicalStoresOnlyDifferingRows(t *testing.T) {
	ne := []int{1, 3, 2, 1, 2}
	gen, err := InitTemporalA(ne)
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded(t, fullRows(gen)).Canonical(ne); !reflect.DeepEqual(got, gen) {
		t.Errorf("decoded generated block canonicalizes to %+v, want %+v", got, gen)
	}
	if gen.Canonical(ne) != gen || gen.Canonical([]int{1, 1, 1, 1, 1}) != gen {
		t.Error("a block with a generator was rebuilt")
	}
	rows := fullRows(gen)
	rows[2][2] = math.Nextafter(rows[2][2], 1) // one bit off in one value
	got := decoded(t, rows).Canonical(ne)
	for i := 0; i < got.Rows(); i++ {
		if stored := got.Explicit(i) != nil; stored != (i == 2) {
			t.Errorf("row %d stored = %v", i, stored)
		}
	}
	if !reflect.DeepEqual(fullRows(got), rows) {
		t.Errorf("canonical block reads %v, want %v", fullRows(got), rows)
	}
	for _, bad := range [][]int{{1, 1}, {1, 0, 1, 1, 1}} {
		d := decoded(t, rows)
		if d.Canonical(bad) != d {
			t.Errorf("counts %v rebuilt the block", bad)
		}
	}
	if e := new(A1); e.Canonical(nil) != e {
		t.Error("empty block rebuilt")
	}
}

// TestA1GobIsDensePayload pins the persisted form: a block encodes to
// exactly the bytes a matrix.Dense of the same values does, and decodes
// to its values with every row stored.
func TestA1GobIsDensePayload(t *testing.T) {
	a, err := InitTemporalA([]int{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := fullRows(a)
	d := matrix.NewDense(3, 3)
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	ab, err := a.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := d.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, db) {
		t.Fatalf("A1 payload differs from the Dense payload:\n%x\n%x", ab, db)
	}
	var got A1
	if err := got.GobDecode(db); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, decoded(t, rows)) {
		t.Errorf("decoded %+v", got)
	}
	eb, err := new(A1).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var empty A1
	if err := empty.GobDecode(eb); err != nil || !reflect.DeepEqual(empty, A1{}) {
		t.Errorf("empty round trip: %+v, %v", empty, err)
	}
}

func TestA1GobRejectsCorrupt(t *testing.T) {
	type densePayload struct {
		Rows, Cols int
		Data       []float64
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
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		var a A1
		if err := a.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
	var a A1
	if err := a.GobDecode([]byte{0xff}); err == nil {
		t.Error("undecodable payload accepted")
	}
}

// TestA1RefusesNaNRow: a row holding NaN sums to NaN, which is within
// no tolerance of 1.
func TestA1RefusesNaNRow(t *testing.T) {
	a, err := FromRows([][]float64{{math.NaN(), 0.5}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.IsRowStochastic(1e-6) {
		t.Error("A1 with a NaN row reported stochastic")
	}
}

func TestFromRowsRejectsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{0.5, 0.5}, {0.5, 0.5}}); err == nil {
		t.Error("a row left of the diagonal accepted")
	}
}

// updateDense is the Eq. (1)-(2) reference UpdateA must match: the
// dense n×n co-access over every ordered pair of a pattern's distinct
// states, the update over full rows, and normalizeRowsDense, read back
// into a block over prior's generator.
func updateDense(prior *A1, patterns []AccessPattern, opts UpdateOptions) *A1 {
	n := prior.Rows()
	co := matrix.NewDense(n, n)
	for _, p := range patterns {
		if p.Freq <= 0 {
			continue
		}
		seen := map[int]bool{}
		for _, s := range p.States {
			seen[s] = true
		}
		for m := range seen {
			for k := range seen {
				co.Set(m, k, co.At(m, k)+float64(p.Freq))
			}
		}
	}
	out := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		trained := false
		for j := 0; j < n; j++ {
			a, c := prior.At(i, j), co.At(i, j)
			if c > 0 && a > 0 {
				trained = true
			}
			out.Set(i, j, a*(opts.Smoothing+c))
		}
		if !trained && opts.KeepUntrained {
			for j := 0; j < n; j++ {
				out.Set(i, j, prior.At(i, j))
			}
		}
	}
	normalizeRowsDense(out)
	gen := &A1{n: n, suf: prior.suf}
	return gen.rewrite(func(i int, _ []float64) []float64 { return out.Row(i)[i:] })
}

// TestUpdateAMatchesDenseReference: over random priors — generated,
// trained once, and decoded without a generator — random pattern sets
// and every option combination, UpdateA's block is reflect.DeepEqual to
// the dense reference's.
func TestUpdateAMatchesDenseReference(t *testing.T) {
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(12)
		ne := make([]int, n)
		for i := range ne {
			ne[i] = 1 + rng.Intn(4)
		}
		gen, err := InitTemporalA(ne)
		if err != nil {
			return false
		}
		patterns := func() []AccessPattern {
			var ps []AccessPattern
			for p := rng.Intn(6); p > 0; p-- {
				var states []int
				for s := 1 + rng.Intn(4); s > 0; s-- {
					states = append(states, rng.Intn(n))
				}
				ps = append(ps, AccessPattern{States: states, Freq: rng.Intn(5) - 1})
			}
			return ps
		}
		once, err := UpdateA(gen, patterns(), DefaultUpdateOptions())
		if err != nil {
			return false
		}
		for _, prior := range []*A1{gen, once, decoded(t, fullRows(once))} {
			for _, opts := range []UpdateOptions{
				DefaultUpdateOptions(), {}, {Smoothing: 0.01}, {KeepUntrained: true},
			} {
				ps := patterns()
				got, err := UpdateA(prior, ps, opts)
				if err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				if want := updateDense(prior, ps, opts); !reflect.DeepEqual(got, want) {
					t.Logf("seed %d n=%d opts %+v patterns %v:\n got %+v\nwant %+v", seed, n, opts, ps, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUpdateAStoresOnlyRewrittenRows: a retrain stores the rows whose
// normalized values moved and leaves the rest to the generator.
func TestUpdateAStoresOnlyRewrittenRows(t *testing.T) {
	prior, err := InitTemporalA([]int{2, 1, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pattern {0, 2} retrains rows 0 and 2. Untrained rows 1 and 3 keep
	// their prior: row 1 (0, 3/4, 1/4) and row 3 (1) already sum to
	// exactly 1, so normalizing leaves their bits alone.
	got, err := UpdateA(prior, []AccessPattern{{States: []int{0, 2}, Freq: 3}}, DefaultUpdateOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true, false} {
		if stored := got.Explicit(i) != nil; stored != want {
			t.Errorf("row %d stored = %v, want %v", i, stored, want)
		}
	}
	if &got.suf[0] != &prior.suf[0] {
		t.Error("the update does not share its prior's generator")
	}
	// The stored rows lie back to back, in a backing of their own size.
	if gap := uintptr(unsafe.Pointer(&got.rows[2][0])) - uintptr(unsafe.Pointer(&got.rows[0][0])); gap != 4*8 {
		t.Errorf("row 2 starts %d bytes after row 0, want right after its 4 values", gap)
	}
	if _, err := UpdateA(prior, []AccessPattern{{States: []int{4}, Freq: 1}}, DefaultUpdateOptions()); err == nil {
		t.Error("out-of-range state accepted")
	}
}

// FuzzA1Canonical draws an NE vector and a set of rows to bit-flip, and
// checks the canonical block of the dense values: every (i, j) reads
// the dense input's bits, exactly the flipped rows are stored, and a
// block equal to InitTemporalA's stores none.
func FuzzA1Canonical(f *testing.F) {
	f.Add([]byte{1, 2, 1}, uint64(0), uint8(0))
	f.Add([]byte{2, 1, 3, 1}, uint64(0b1010), uint8(51))
	f.Add([]byte{7}, uint64(1), uint8(63))
	f.Fuzz(func(t *testing.T, counts []byte, flips uint64, bit uint8) {
		if len(counts) == 0 || len(counts) > 64 {
			return
		}
		ne := make([]int, len(counts))
		for i, c := range counts {
			ne[i] = 1 + int(c%16)
		}
		gen, err := InitTemporalA(ne)
		if err != nil {
			t.Fatal(err)
		}
		rows := fullRows(gen)
		for i := range rows {
			if flips&(1<<i) != 0 {
				for j := i; j < len(rows); j++ {
					rows[i][j] = math.Float64frombits(math.Float64bits(rows[i][j]) ^ 1<<(bit%64))
				}
			}
		}
		got := decoded(t, rows).Canonical(ne)
		for i := range rows {
			for j := range rows[i] {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(rows[i][j]) {
					t.Fatalf("(%d, %d) reads %v, dense input %v", i, j, got.At(i, j), rows[i][j])
				}
			}
			if stored, flipped := got.Explicit(i) != nil, flips&(1<<i) != 0; stored != flipped {
				t.Fatalf("row %d stored = %v, flipped = %v", i, stored, flipped)
			}
		}
		if flips&(1<<len(rows)-1) == 0 && !reflect.DeepEqual(got, gen) {
			t.Fatalf("unflipped block %+v is not InitTemporalA's %+v", got, gen)
		}
	})
}
