package hmmm

import (
	"fmt"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// TrainOptions tunes feedback training.
type TrainOptions struct {
	// Shot configures the Eq. (1)-(2) local A1 updates.
	Shot mmm.UpdateOptions
	// PiSmoothing blends the Eq. (4) Π estimates toward uniform:
	// Π = (1-s)·trained + s·uniform. A literal Eq. (4) (s = 0) zeroes the
	// initial probability of every state never seen first in a positive
	// pattern, which would make those states unreachable as traversal
	// starts; a small s keeps the model ergodic.
	PiSmoothing float64
	// PiInitialOnly counts only first-of-pattern occurrences for Π
	// (the Section 4.2.1.3 text) rather than all usages (the literal
	// formula).
	PiInitialOnly bool
}

// DefaultTrainOptions returns the training configuration the retrieval
// system uses.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Shot:          mmm.DefaultUpdateOptions(),
		PiSmoothing:   0.1,
		PiInitialOnly: true,
	}
}

// Train returns a trained copy of the model, leaving m untouched: the
// shot level learns from the shot patterns (global state indices) and the
// video level from the video patterns (video indices), as offline
// retraining from positive feedback prescribes.
func (m *Model) Train(shot, video []mmm.AccessPattern, opts TrainOptions) (*Model, error) {
	c := m.Clone()
	if err := c.trainShotLevel(shot, opts); err != nil {
		return nil, err
	}
	if err := c.trainVideoLevel(video, opts); err != nil {
		return nil, fmt.Errorf("hmmm: video level: %w", err)
	}
	return c, nil
}

// trainShotLevel reinforces each video's local A1 per Eqs. (1)-(2) using
// the pattern fragments that fall inside that video, and re-estimates Π1
// per Eq. (4).
func (m *Model) trainShotLevel(patterns []mmm.AccessPattern, opts TrainOptions) error {
	n := m.NumStates()
	for pi, p := range patterns {
		for _, s := range p.States {
			if s < 0 || s >= n {
				return fmt.Errorf("hmmm: pattern %d references state %d, model has %d states", pi, s, n)
			}
		}
	}

	// Split every pattern into per-video fragments with local indices.
	perVideo := make([][]mmm.AccessPattern, m.NumVideos())
	for _, p := range patterns {
		if p.Freq <= 0 {
			continue
		}
		frags := make(map[int][]int)
		for _, s := range p.States {
			st := &m.States[s]
			frags[st.VideoIdx] = append(frags[st.VideoIdx], st.LocalIdx)
		}
		for vi, locals := range frags {
			perVideo[vi] = append(perVideo[vi], mmm.AccessPattern{States: locals, Freq: p.Freq})
		}
	}
	for vi, frags := range perVideo {
		if len(frags) == 0 || m.LocalA[vi].Rows() == 0 {
			continue
		}
		updated, err := mmm.UpdateA(m.LocalA[vi], frags, opts.Shot)
		if err != nil {
			return fmt.Errorf("hmmm: training video %d: %w", vi, err)
		}
		m.LocalA[vi] = updated
	}

	pi1, err := mmm.BuildPi(patterns, n, opts.PiInitialOnly)
	if err != nil {
		return err
	}
	m.Pi1 = blendUniform(pi1, opts.PiSmoothing)
	return nil
}

// trainVideoLevel rebuilds A2 per Eqs. (5)-(6) and Π2 per the Section
// 4.2.2.3 rule.
func (m *Model) trainVideoLevel(patterns []mmm.AccessPattern, opts TrainOptions) error {
	a2, err := mmm.BuildAffinityA(patterns, m.NumVideos())
	if err != nil {
		return err
	}
	m.A2 = a2
	pi2, err := mmm.BuildPi(patterns, m.NumVideos(), opts.PiInitialOnly)
	if err != nil {
		return err
	}
	m.Pi2 = blendUniform(pi2, opts.PiSmoothing)
	return nil
}

// blendUniform returns (1-s)·p + s·uniform.
func blendUniform(p []float64, s float64) []float64 {
	if s <= 0 || len(p) == 0 {
		return p
	}
	u := 1 / float64(len(p))
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = (1-s)*v + s*u
	}
	return out
}

// Clone returns a deep copy of the model. It copies the struct first, so
// every value field (Domain, Partial, ...) carries over without being
// listed, then replaces each reference with a copy of its own.
func (m *Model) Clone() *Model {
	c := *m
	c.States = append([]State(nil), m.States...)
	for i := range c.States {
		c.States[i].Events = append([]videomodel.Event(nil), m.States[i].Events...)
	}
	c.B1 = m.B1.Clone()
	c.Pi1 = append([]float64(nil), m.Pi1...)
	c.LocalA = make([]*matrix.Dense, len(m.LocalA))
	for i, a := range m.LocalA {
		c.LocalA[i] = a.Clone()
	}
	c.VideoIDs = append([]videomodel.VideoID(nil), m.VideoIDs...)
	c.A2 = m.A2.Clone()
	c.B2 = m.B2.Clone()
	c.Pi2 = append([]float64(nil), m.Pi2...)
	c.P12 = m.P12.Clone()
	c.B1Prime = m.B1Prime.Clone()
	c.Scaler.SetBounds(m.Scaler.Bounds())
	c.offsets = append([]int(nil), m.offsets...)
	return &c
}
