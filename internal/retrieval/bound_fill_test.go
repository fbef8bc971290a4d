package retrieval

import (
	"math/bits"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/xrand"
)

// referenceBounds fills the bound tables by their definition over fully
// materialized A1 rows: entry[r] = max Π1(s)·sim(s, r) and
// pair[r1][r2] = max A1(s, t)·sim(t, r2) over every s < t with s
// carrying r1 and t carrying r2. It reuses only the engine's concept
// masks and offsets.
func referenceBounds(e *Engine) *bounds {
	m, got := e.m, e.shared.bound
	b := &bounds{mask: got.mask, off: got.off, vals: make([]uint16, len(got.vals))}
	for v := 0; v < m.NumVideos(); v++ {
		mask := b.mask[v]
		p := bits.OnesCount16(mask)
		blk := make([]float64, p+p*p)
		entry, pair := blk[:p], blk[p:]
		lo, hi := m.VideoStates(v)
		a := m.LocalA[v]
		buf := make([]float64, hi-lo)
		for s := lo; s < hi; s++ {
			for _, ev := range m.States[s].Events {
				if ev.Valid() {
					r := conceptRank(mask, ev.Index())
					entry[r] = max(entry[r], m.Pi1.At(s)*e.Sim(s, ev))
				}
			}
			row := a.Row(s-lo, buf)
			for t := s + 1; t < hi; t++ {
				for _, e1 := range m.States[s].Events {
					for _, e2 := range m.States[t].Events {
						if !e1.Valid() || !e2.Valid() {
							continue
						}
						k := conceptRank(mask, e1.Index())*p + conceptRank(mask, e2.Index())
						pair[k] = max(pair[k], row[t-s]*e.Sim(t, e2))
					}
				}
			}
		}
		for i, x := range blk {
			b.vals[int(b.off[v])+i] = roundUp16(x)
		}
	}
	return b
}

// TestBoundTablesMatchMaterializedRows: the O(n·p) column maxima over
// generated rows and the value loop over stored ones fill exactly the
// tables the definition gives, on a built model, on models retrained
// once and twice (stored rows beside generated ones), and on a compact
// round trip (float32 rows stored).
func TestBoundTablesMatchMaterializedRows(t *testing.T) {
	m := equivModel(t)
	rng := xrand.New(3)
	var shot []mmm.AccessPattern
	for len(shot) < 20 {
		vi := rng.Intn(m.NumVideos())
		lo, hi := m.VideoStates(vi)
		if hi-lo >= 2 {
			s := lo + rng.Intn(hi-lo-1)
			shot = append(shot, mmm.AccessPattern{States: []int{s, s + 1 + rng.Intn(hi-s-1)}, Freq: 1 + rng.Intn(3)})
		}
	}
	once, err := m.Train(shot, nil, hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Train(shot[:5], nil, hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	compact, err := hmmm.FromCompactSnapshot(m.CompactSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for name, mm := range map[string]*hmmm.Model{"built": m, "once": once, "twice": twice, "compact": compact} {
		for _, noSimCache := range []bool{false, true} {
			e, err := NewEngine(mm, Options{AnnotatedOnly: true, NoSimCache: noSimCache})
			if err != nil {
				t.Fatal(err)
			}
			if e.shared.bound == nil {
				t.Fatalf("%s: no bound tables", name)
			}
			if want := referenceBounds(e); !reflect.DeepEqual(e.shared.bound, want) {
				t.Errorf("%s (noSimCache %v): bound tables differ from the materialized-row reference", name, noSimCache)
			}
		}
	}
	stored := 0
	for _, a := range once.LocalA {
		for i := 0; i < a.Rows(); i++ {
			if a.Explicit(i) != nil {
				stored++
			}
		}
	}
	if stored == 0 {
		t.Fatal("the retrained fixture stores no row")
	}
}
