// Property tests of the compact model layout: round-tripping a model
// through CompactSnapshot must preserve the state structure exactly, the
// unquantized parameters bitwise, and every retrieval ranking up to the
// float32 quantization of B1/B1'/A1/A2. External test package so the
// retrieval engine (which imports hmmm) can drive the equivalence.
package hmmm_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

// roundTrip compacts and widens the model, failing the test on error.
func roundTrip(t *testing.T, m *hmmm.Model) *hmmm.Model {
	t.Helper()
	got, err := hmmm.FromCompactSnapshot(m.CompactSnapshot())
	if err != nil {
		t.Fatalf("compact round trip: %v", err)
	}
	return got
}

// TestCompactRoundTripStructure pins what the compact layout must keep
// exact: the state bookkeeping (shots, video/local indices, times,
// annotation sets) and the float64-retained parameters, bit for bit.
func TestCompactRoundTripStructure(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m := retrievaltest.RandomModel(t, retrievaltest.Config{
			Seed: seed, Videos: 9, MaxShots: 10, Events: 5, FeatureDim: 6, LearnP12: true,
		})
		got := roundTrip(t, m)
		if got.NumStates() != m.NumStates() || got.NumVideos() != m.NumVideos() || got.K() != m.K() {
			t.Fatalf("seed %d: shape %d/%d/%d, want %d/%d/%d", seed,
				got.NumStates(), got.NumVideos(), got.K(),
				m.NumStates(), m.NumVideos(), m.K())
		}
		for i := range m.States {
			a, b := &m.States[i], &got.States[i]
			if a.Shot != b.Shot || got.VideoOf(i) != m.VideoOf(i) || got.StartMS(i) != m.StartMS(i) {
				t.Fatalf("seed %d: state %d is shot %d of video %d at %dms, want shot %d of video %d at %dms", seed, i,
					b.Shot, got.VideoOf(i), got.StartMS(i), a.Shot, m.VideoOf(i), m.StartMS(i))
			}
			if len(a.Events) != len(b.Events) {
				t.Fatalf("seed %d: state %d has %d events, want %d", seed, i, len(b.Events), len(a.Events))
			}
			for _, e := range a.Events {
				if !b.HasEvent(e) {
					t.Fatalf("seed %d: state %d lost event %v", seed, i, e)
				}
			}
		}
		// Unquantized parameters survive bitwise.
		for i, v := range m.Pi1.Values() {
			if got.Pi1.At(i) != v {
				t.Fatalf("seed %d: Pi1[%d] = %v, want %v (bitwise)", seed, i, got.Pi1.At(i), v)
			}
		}
		for i, v := range m.Pi2 {
			if got.Pi2[i] != v {
				t.Fatalf("seed %d: Pi2[%d] = %v, want %v (bitwise)", seed, i, got.Pi2[i], v)
			}
		}
		if !reflect.DeepEqual(m.P12, got.P12) {
			t.Fatalf("seed %d: P12 differs", seed)
		}
		// Quantized matrices are exactly the float32 rounding of the
		// originals — one rounding, not an accumulated error.
		for i := 0; i < m.B1.Rows(); i++ {
			for j := 0; j < m.B1.Cols(); j++ {
				if want := float64(float32(m.B1.At(i, j))); got.B1.At(i, j) != want {
					t.Fatalf("seed %d: B1(%d,%d) = %v, want %v", seed, i, j, got.B1.At(i, j), want)
				}
			}
		}
		for vi, a := range m.LocalA {
			for i := 0; i < a.Rows(); i++ {
				for j := 0; j < a.Rows(); j++ {
					if want := float64(float32(a.At(i, j))); got.LocalA[vi].At(i, j) != want {
						t.Fatalf("seed %d: video %d A1(%d,%d) = %v, want %v",
							seed, vi, i, j, got.LocalA[vi].At(i, j), want)
					}
				}
			}
		}
	}
}

// TestCompactRoundTripRetrieval is the behavioral property: on every
// corpus query, the widened model must retrieve the same state sequences
// in the same order as the original, with scores and weights within
// float32 quantization tolerance.
func TestCompactRoundTripRetrieval(t *testing.T) {
	const relTol = 1e-5
	for seed := uint64(1); seed <= 6; seed++ {
		m := retrievaltest.RandomModel(t, retrievaltest.Config{
			Seed: seed, Videos: 10, MaxShots: 10, Events: 4, FeatureDim: 6, LearnP12: true,
		})
		rt := roundTrip(t, m)
		for _, annotated := range []bool{true, false} {
			opts := retrieval.Options{TopK: 8, Beam: 4, AnnotatedOnly: annotated}
			a, err := retrieval.NewEngine(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := retrieval.NewEngine(rt, opts)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range retrievaltest.Queries(m) {
				want, err := a.Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed=%d annotated=%v q=%d", seed, annotated, qi)
				if len(want.Matches) != len(got.Matches) {
					t.Fatalf("%s: %d matches, want %d", label, len(got.Matches), len(want.Matches))
				}
				for r := range want.Matches {
					wm, gm := want.Matches[r], got.Matches[r]
					if fmt.Sprint(wm.States) != fmt.Sprint(gm.States) ||
						fmt.Sprint(wm.Shots) != fmt.Sprint(gm.Shots) ||
						fmt.Sprint(wm.Videos) != fmt.Sprint(gm.Videos) {
						t.Fatalf("%s: rank %d sequence %v/%v, want %v/%v",
							label, r, gm.States, gm.Videos, wm.States, wm.Videos)
					}
					if !within(wm.Score, gm.Score, relTol) {
						t.Fatalf("%s: rank %d score %v, want %v (rel tol %v)",
							label, r, gm.Score, wm.Score, relTol)
					}
					for wi := range wm.Weights {
						if !within(wm.Weights[wi], gm.Weights[wi], relTol) {
							t.Fatalf("%s: rank %d weight %d = %v, want %v",
								label, r, wi, gm.Weights[wi], wm.Weights[wi])
						}
					}
				}
			}
		}
	}
}

func within(a, b, relTol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= relTol*math.Max(scale, 1)
}

// TestCompactSmaller pins the layout's reason to exist: the compact
// payload must be at most half the dense snapshot's bytes on a corpus
// with real feature and A1 mass.
func TestCompactSmaller(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: 3, Videos: 10, MaxShots: 30, Events: 5, FeatureDim: 12, LearnP12: true,
	})
	dense := m.Snapshot().MemoryBytes()
	compact := m.CompactSnapshot().MemoryBytes()
	if compact*2 > dense {
		t.Fatalf("compact %d bytes vs dense %d: less than 2x smaller", compact, dense)
	}
	t.Logf("dense %d bytes, compact %d bytes (%.2fx)", dense, compact, float64(dense)/float64(compact))
}

// TestCompactRejectsCorrupt covers the decode-side validation.
func TestCompactRejectsCorrupt(t *testing.T) {
	if _, err := hmmm.FromCompactSnapshot(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 9, Videos: 4})
	tamper := []func(*hmmm.CompactSnapshot){
		func(cs *hmmm.CompactSnapshot) { cs.StateCounts = cs.StateCounts[:1] },
		func(cs *hmmm.CompactSnapshot) { cs.StartMS = cs.StartMS[:0] },
		func(cs *hmmm.CompactSnapshot) { cs.LocalA = cs.LocalA[:1] },
		func(cs *hmmm.CompactSnapshot) { cs.StateCounts[0] += 3 },
		func(cs *hmmm.CompactSnapshot) { cs.StateCounts[0]-- },
	}
	for i, f := range tamper {
		cs := m.CompactSnapshot()
		f(cs)
		if _, err := hmmm.FromCompactSnapshot(cs); err == nil {
			t.Errorf("tamper %d: corrupt snapshot accepted", i)
		}
	}
}
