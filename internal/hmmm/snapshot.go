package hmmm

import (
	"errors"
	"fmt"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Snapshot is the fully exported persistent form of a Model, suitable for
// encoding/gob or JSON.
type Snapshot struct {
	States    []State
	B1        *matrix.Dense
	Pi1       []float64
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
	// Snapshots written before sharding existed decode with the zero
	// value (a full model), keeping the gob format backward compatible.
	Partial bool
	// Domain mirrors Model.Domain. Snapshots written before domain
	// stamping decode to "" — interpreted everywhere as soccer.
	Domain string
}

// Snapshot captures the model's full state.
func (m *Model) Snapshot() *Snapshot {
	min, max := m.Scaler.Bounds()
	return &Snapshot{
		States:    m.States,
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

// FromSnapshot reconstructs a model, rebuilding the internal per-video
// offset index from the states and validating the result.
func FromSnapshot(s *Snapshot) (*Model, error) {
	if s == nil {
		return nil, errors.New("hmmm: nil snapshot")
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
	}
	m.Scaler.SetBounds(s.ScalerMin, s.ScalerMax)
	// Rebuild offsets: states are stored grouped by video in order.
	m.offsets = make([]int, len(m.VideoIDs))
	cursor := 0
	for vi := range m.VideoIDs {
		m.offsets[vi] = cursor
		for cursor < len(m.States) && m.States[cursor].VideoIdx == vi {
			cursor++
		}
	}
	if cursor != len(m.States) {
		return nil, fmt.Errorf("hmmm: snapshot states not grouped by video (%d of %d consumed)", cursor, len(m.States))
	}
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
