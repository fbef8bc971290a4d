package hmmm

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// CompactSnapshot is the memory- and disk-compact persistent form of a
// Model: the same information as Snapshot at roughly a third of the
// bytes, trading float64 storage for float32 where the model's own 1e-6
// validation tolerance makes the 2^-24 quantization error invisible, and
// struct-of-arrays state bookkeeping for the []State slice.
//
//   - State layout: per-video state counts plus parallel ShotIDs /
//     StartMS / EventMask arrays, as a Model holds its start times. Each
//     state's events are recovered from its annotation bitmask in
//     ascending concept order (the model's semantics never depend on
//     annotation order, only membership).
//   - B1, B1', A2, B2 quantize to float32 (B2 holds small integer counts,
//     exact in float32); A2 travels square. The per-video A1 blocks, upper
//     triangular, additionally trim each row to its non-zero band.
//   - Π1, Π2, P1,2, and the scaler bounds stay float64: they are small
//     (O(N) + O(M) + O(C·K) values) and P1,2 feeds the Eq. 14 weight
//     vectors that differential tests pin bitwise.
//
// Compact is a storage/transport layout, not a serving layout: decoding
// widens everything back to the float64 Model the engines consume — the
// A1 bands into upper-triangular rows, A2 into its most common uniform
// row plus the rows that differ (mmm.A2FromDense). Round-tripping a
// model through CompactSnapshot therefore perturbs retrieval scores only
// by the float32 rounding of B1/B1'/A1/A2 — the property test in
// compact_test.go pins the tolerance — while the state sequences
// retrieved stay identical in practice.
type CompactSnapshot struct {
	VideoIDs []videomodel.VideoID
	// StateCounts[v] is the number of states (annotated shots) of video
	// v; states are stored grouped by video in temporal order, exactly
	// like Model.States.
	StateCounts []int32
	ShotIDs     []int64
	StartMS     []int32
	// EventMask[s] has bit c set iff state s is annotated with the
	// concept of index c. This is what pins videomodel.MaxEvents at 16:
	// every domain vocabulary must fit the mask.
	EventMask []uint16

	B1      *matrix.Float32
	Pi1     []float64
	LocalA  []*matrix.Banded
	A2      *matrix.Float32
	B2      *matrix.Float32
	Pi2     []float64
	P12     *matrix.Dense
	B1Prime *matrix.Float32

	ScalerMin []float64
	ScalerMax []float64
	Partial   bool
	// Domain mirrors Model.Domain ("" = soccer, as in Snapshot).
	Domain string
}

// CompactSnapshot captures the model in the compact layout.
func (m *Model) CompactSnapshot() *CompactSnapshot {
	min, max := m.Scaler.Bounds()
	cs := &CompactSnapshot{
		VideoIDs:    m.VideoIDs,
		StateCounts: make([]int32, m.NumVideos()),
		ShotIDs:     make([]int64, m.NumStates()),
		StartMS:     m.startMS,
		EventMask:   make([]uint16, m.NumStates()),
		B1:          matrix.ToFloat32(m.B1),
		Pi1:         m.Pi1.Values(),
		LocalA:      make([]*matrix.Banded, len(m.LocalA)),
		A2:          matrix.ToFloat32(m.A2.Dense()),
		B2:          matrix.ToFloat32(m.B2),
		Pi2:         m.Pi2,
		P12:         m.P12,
		B1Prime:     matrix.ToFloat32(m.B1Prime),
		ScalerMin:   min,
		ScalerMax:   max,
		Partial:     m.Partial,
		Domain:      m.Domain,
	}
	for vi := range cs.StateCounts {
		lo, hi := m.VideoStates(vi)
		cs.StateCounts[vi] = int32(hi - lo)
	}
	for i := range m.States {
		st := &m.States[i]
		cs.ShotIDs[i] = int64(st.Shot)
		for _, e := range st.Events {
			cs.EventMask[i] |= 1 << e.Index()
		}
	}
	for vi, a := range m.LocalA {
		buf := make([]float64, a.Rows())
		cs.LocalA[vi] = matrix.ToBanded(a.Rows(), func(i int) []float64 { return a.Row(i, buf) })
	}
	return cs
}

// FromCompactSnapshot widens a compact snapshot back to a float64 Model,
// rebuilding the state bookkeeping and validating the result with the
// same tolerance as FromSnapshot. A band starting left of its row's
// diagonal is refused: no A1 block has a value there.
func FromCompactSnapshot(cs *CompactSnapshot) (*Model, error) {
	if cs == nil {
		return nil, errors.New("hmmm: nil compact snapshot")
	}
	if len(cs.StateCounts) != len(cs.VideoIDs) {
		return nil, fmt.Errorf("hmmm: compact snapshot has %d state counts for %d videos",
			len(cs.StateCounts), len(cs.VideoIDs))
	}
	n := len(cs.ShotIDs)
	if len(cs.StartMS) != n || len(cs.EventMask) != n {
		return nil, fmt.Errorf("hmmm: compact snapshot state arrays disagree: %d shots, %d starts, %d masks",
			n, len(cs.StartMS), len(cs.EventMask))
	}
	if len(cs.LocalA) != len(cs.VideoIDs) {
		return nil, fmt.Errorf("hmmm: compact snapshot has %d A1 blocks for %d videos",
			len(cs.LocalA), len(cs.VideoIDs))
	}
	// A record that leaves a matrix out decodes it as nil.
	if cs.B1 == nil || cs.A2 == nil || cs.B2 == nil || cs.B1Prime == nil {
		return nil, errors.New("hmmm: compact snapshot lacks B1, A2, B2 or B1'")
	}
	s := &Snapshot{
		States:    make([]State, n),
		StartMS:   cs.StartMS,
		Offsets:   make([]int, len(cs.StateCounts)),
		B1:        cs.B1.Dense(),
		Pi1:       mmm.NewPi(cs.Pi1),
		LocalA:    make([]*mmm.A1, len(cs.LocalA)),
		VideoIDs:  cs.VideoIDs,
		B2:        cs.B2.Dense(),
		Pi2:       cs.Pi2,
		P12:       cs.P12,
		B1Prime:   cs.B1Prime.Dense(),
		ScalerMin: cs.ScalerMin,
		ScalerMax: cs.ScalerMax,
		Partial:   cs.Partial,
		Domain:    cs.Domain,
	}
	gi := 0
	for vi, cnt := range cs.StateCounts {
		if cnt < 0 || int(cnt) > n-gi {
			return nil, fmt.Errorf("hmmm: compact snapshot counts %d states for video %d, arrays hold %d more",
				cnt, vi, n-gi)
		}
		s.Offsets[vi] = gi
		gi += int(cnt)
	}
	if gi != n {
		return nil, fmt.Errorf("hmmm: compact snapshot counts %d states, arrays hold %d", gi, n)
	}
	// Every state's events are carved from one array: the mask's bits,
	// ascending. A bit past the concept axis is refused, as Validate
	// refuses such an event.
	axis := uint16(1)<<cs.B2.Cols() - 1
	total := 0
	for i, mask := range cs.EventMask {
		if mask&^axis != 0 {
			return nil, fmt.Errorf("hmmm: compact snapshot state %d annotated outside the %d-concept axis", i, cs.B2.Cols())
		}
		total += bits.OnesCount16(mask)
	}
	events := make([]videomodel.Event, 0, total)
	for i, mask := range cs.EventMask {
		lo := len(events)
		for c := 0; c < cs.B2.Cols(); c++ {
			if mask&(1<<c) != 0 {
				events = append(events, videomodel.EventFromIndex(c))
			}
		}
		s.States[i] = State{Shot: videomodel.ShotID(cs.ShotIDs[i]), Events: events[lo:len(events):len(events)]}
	}
	a2, err := mmm.A2FromDense(cs.A2.Dense())
	if err != nil {
		return nil, fmt.Errorf("hmmm: compact snapshot A2: %w", err)
	}
	s.A2 = a2
	for vi, a := range cs.LocalA {
		rows, err := a.UpperRows()
		if err == nil {
			s.LocalA[vi], err = mmm.FromRows(rows)
		}
		if err != nil {
			return nil, fmt.Errorf("hmmm: compact snapshot video %d A1: %w", vi, err)
		}
	}
	return FromSnapshot(s)
}

// MemoryBytes estimates the size of the snapshot's persisted numeric
// payload: the figure the scale benchmark reports per shot against the
// compact layout's. It counts each state as the five fields, each A1
// block and A2 as the square dense payload, and Π1 as the N values a
// "model" record writes, not the two fields, the Eq. 1 generator, the
// uniform rows and the stored rows a Model holds: it is the persisted
// size, not the resident one.
func (s *Snapshot) MemoryBytes() int {
	n := 0
	for i := range s.States {
		n += 8 + 8 + 8 + 8 + len(s.States[i].Events)*8 // a record's Shot, VideoIdx, LocalIdx, StartMS, Events
	}
	n += denseBytes(s.B1) + s.A2.Rows()*s.A2.Rows()*8 + denseBytes(s.B2)
	n += denseBytes(s.P12) + denseBytes(s.B1Prime)
	for _, a := range s.LocalA {
		n += a.Rows() * a.Rows() * 8
	}
	n += (s.Pi1.Len() + len(s.Pi2) + len(s.ScalerMin) + len(s.ScalerMax)) * 8
	n += len(s.VideoIDs) * 8
	return n
}

func denseBytes(d *matrix.Dense) int {
	if d == nil {
		return 0
	}
	return d.Rows() * d.Cols() * 8
}

// MemoryBytes estimates the resident size of the compact snapshot's
// numeric payload.
func (cs *CompactSnapshot) MemoryBytes() int {
	n := len(cs.ShotIDs)*8 + len(cs.StartMS)*4 + len(cs.EventMask)*2
	n += len(cs.StateCounts)*4 + len(cs.VideoIDs)*8
	n += cs.B1.MemoryBytes() + cs.A2.MemoryBytes() + cs.B2.MemoryBytes() + cs.B1Prime.MemoryBytes()
	n += denseBytes(cs.P12)
	for _, a := range cs.LocalA {
		n += a.MemoryBytes()
	}
	n += (len(cs.Pi1) + len(cs.Pi2) + len(cs.ScalerMin) + len(cs.ScalerMax)) * 8
	return n
}
