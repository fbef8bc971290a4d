package hmmm

import (
	"errors"
	"fmt"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Snapshot is the fully exported form of a Model: the state layout the
// model derives its indices from, and every parameter. A store record
// converts to and from it.
type Snapshot struct {
	States []State
	// StartMS[s] is state s's occurrence time within its video.
	StartMS []int32
	// Offsets[v] is the index into States of video v's first state:
	// states are grouped by video, in video order, and in temporal order
	// within each video.
	Offsets   []int
	B1        *matrix.Dense
	Pi1       *mmm.Pi
	LocalA    []*mmm.A1
	VideoIDs  []videomodel.VideoID
	A2        *mmm.A2
	B2        *matrix.Dense
	Pi2       []float64
	P12       *matrix.Dense
	B1Prime   *matrix.Dense
	ScalerMin []float64
	ScalerMax []float64
	// Partial mirrors Model.Partial: the snapshot describes a by-video
	// shard of a larger model, so Π1/Π2/A2 may be sub-stochastic.
	Partial bool
	// Domain mirrors Model.Domain; "" is soccer.
	Domain string
}

// Snapshot captures the model's full state. It shares the model's
// storage.
func (m *Model) Snapshot() *Snapshot {
	min, max := m.Scaler.Bounds()
	return &Snapshot{
		States:    m.States,
		StartMS:   m.startMS,
		Offsets:   m.offsets,
		B1:        m.B1,
		Pi1:       m.Pi1,
		LocalA:    m.LocalA,
		VideoIDs:  m.VideoIDs,
		A2:        m.A2,
		B2:        m.B2,
		Pi2:       m.Pi2,
		P12:       m.P12,
		B1Prime:   m.B1Prime,
		ScalerMin: min,
		ScalerMax: max,
		Partial:   m.Partial,
		Domain:    m.Domain,
	}
}

// FromSnapshot reconstructs a model over the snapshot's storage and
// validates it. It refuses a state layout whose offsets do not group
// every state into exactly one video.
func FromSnapshot(s *Snapshot) (*Model, error) {
	if s == nil {
		return nil, errors.New("hmmm: nil snapshot")
	}
	n := len(s.States)
	if len(s.StartMS) != n {
		return nil, fmt.Errorf("hmmm: snapshot has %d start times for %d states", len(s.StartMS), n)
	}
	if len(s.Offsets) != len(s.VideoIDs) {
		return nil, fmt.Errorf("hmmm: snapshot has %d video offsets for %d videos", len(s.Offsets), len(s.VideoIDs))
	}
	prev := 0
	for vi, o := range s.Offsets {
		if o < prev || o > n || (vi == 0 && o != 0) {
			return nil, fmt.Errorf("hmmm: snapshot video %d starts at state %d, after %d of %d", vi, o, prev, n)
		}
		prev = o
	}
	if n > 0 && len(s.Offsets) == 0 {
		return nil, fmt.Errorf("hmmm: snapshot holds %d states and no video", n)
	}
	m := &Model{
		States:   s.States,
		B1:       s.B1,
		Pi1:      s.Pi1,
		LocalA:   make([]*mmm.A1, len(s.LocalA)),
		VideoIDs: s.VideoIDs,
		A2:       s.A2,
		B2:       s.B2,
		Pi2:      s.Pi2,
		P12:      s.P12,
		B1Prime:  s.B1Prime,
		Partial:  s.Partial,
		Domain:   s.Domain,
		offsets:  s.Offsets,
		startMS:  s.StartMS,
	}
	m.Scaler.SetBounds(s.ScalerMin, s.ScalerMax)
	// A decoded A1 block stores every row; over its video's annotation
	// counts it keeps only the rows feedback rewrote. A block that
	// already has a generator is kept, so a shard still aliases its
	// parent's blocks.
	for vi, a := range s.LocalA {
		var ne []int
		if vi < len(m.offsets) {
			lo, hi := m.VideoStates(vi)
			ne = make([]int, hi-lo)
			for li := range ne {
				ne[li] = len(m.States[lo+li].Events)
			}
		}
		m.LocalA[vi] = a.Canonical(ne)
	}
	if err := m.Validate(1e-6); err != nil {
		return nil, fmt.Errorf("hmmm: snapshot invalid: %w", err)
	}
	return m, nil
}
