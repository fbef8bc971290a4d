// Package shard partitions a two-level HMMM by video into K sub-models
// and serves queries by scatter-gather over one retrieval engine per
// shard: each shard holds one contiguous range of the parent's states,
// and a retrieval.Gather lifts its ranking by the range's offset.
//
// The partition is exact, not approximate: the paper's pattern score SS
// (Eq. 15) is a product-sum over one candidate sequence's own states —
// Π1 of the entry state, A1 edges within the video, and Eq. 14
// similarities from B1/B1'/P1,2 — so it never reads another video's
// parameters. A shard therefore copies its videos' Π1/B1/A1 values
// verbatim, restricts the video level (A2/B2/Π2/L1,2) to its own
// videos, and shares the cross-level matrices P1,2 and B1' with the
// parent. Nothing is renormalized: the restricted Π1/Π2/A2 are
// sub-stochastic (hmmm.Model.Partial), because renormalizing would
// perturb every Eq. 12 product and break the bit-identical equivalence
// between sharded and unsharded retrieval that Group guarantees.
//
// Exactness contract (pinned by the differential tests): for a full
// retrieval — no StopAfterMatches, CrossVideo off — the ranking a Group
// of K shards returns is bit-identical, scores and tie-breaks included,
// to the single engine over the unsharded model, for every K. See
// Group's documentation for the sharded definitions of early stop,
// truncation, and cost.
package shard

import (
	"errors"
	"fmt"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
)

// Shard is one by-video partition of a parent model.
type Shard struct {
	// Model is the sub-model: a valid hmmm.Model with Partial set,
	// restricted to this shard's videos.
	Model *hmmm.Model
	// Videos holds the parent-model video indices of this shard, in
	// ascending order; shard-local video v corresponds to parent video
	// Videos[v].
	Videos []int
	// Offset maps shard-local state s to parent state Offset+s: Split
	// assigns contiguous video ranges and keeps each video's state
	// order, so a shard's states are one contiguous parent range.
	Offset int
}

// Split partitions m by video into at most k shards, balancing by state
// count over contiguous video ranges. Videos without annotated states
// join the current shard (they contribute no level-1 states anywhere).
// When the archive cannot fill k shards — fewer states than k, or a few
// large videos absorbing several targets — Split returns fewer shards;
// it never returns a shard without states. The parent model is not
// mutated and must stay immutable while the shards serve (the shards
// alias its LocalA blocks, P1,2, and B1').
func Split(m *hmmm.Model, k int) ([]*Shard, error) {
	if m == nil {
		return nil, errors.New("shard: nil model")
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: k = %d, want >= 1", k)
	}
	total := m.NumStates()
	if total == 0 {
		return nil, errors.New("shard: model has no states")
	}
	if k > total {
		k = total
	}

	// Assign contiguous video ranges, advancing to the next shard once
	// the current one reaches its share of the states. A new shard is
	// opened only while unassigned states remain, so every shard ends
	// up with at least one state and every video lands in exactly one
	// shard (stateless videos ride along with their neighbors). An
	// oversized video can absorb several targets at once, in which case
	// fewer than k shards come back.
	groups := make([][]int, 1, k)
	taken := 0 // states assigned to shards before the current one
	cur := 0   // states in the current shard
	for vi := 0; vi < m.NumVideos(); vi++ {
		s := len(groups) - 1
		groups[s] = append(groups[s], vi)
		lo, hi := m.VideoStates(vi)
		cur += hi - lo
		if len(groups) < k && cur > 0 && taken+cur < total && (taken+cur)*k >= total*len(groups) {
			taken += cur
			cur = 0
			groups = append(groups, nil)
		}
	}

	shards := make([]*Shard, 0, len(groups))
	for _, videos := range groups {
		sh, err := build(m, videos)
		if err != nil {
			return nil, err
		}
		if sh != nil {
			shards = append(shards, sh)
		}
	}
	if len(shards) == 0 {
		return nil, errors.New("shard: no shard received any state")
	}
	return shards, nil
}

// build assembles the sub-model for one group of parent video indices,
// or returns (nil, nil) when the group holds no states.
func build(m *hmmm.Model, videos []int) (*Shard, error) {
	n := 0
	for _, vi := range videos {
		lo, hi := m.VideoStates(vi)
		n += hi - lo
	}
	if n == 0 {
		return nil, nil
	}

	snap := m.Snapshot()
	sub := &hmmm.Snapshot{
		States:  make([]hmmm.State, 0, n),
		StartMS: make([]int32, 0, n),
		Offsets: make([]int, 0, len(videos)),
		B1:      matrix.NewDense(n, m.K()),
		LocalA:  make([]*mmm.A1, 0, len(videos)),
		A2:      m.A2.Restrict(videos),
		B2:      matrix.NewDense(len(videos), m.NumConcepts()),
		Pi2:     make([]float64, 0, len(videos)),
		P12:     snap.P12,     // shared with the parent
		B1Prime: snap.B1Prime, // shared with the parent
		Partial: true,
		Domain:  snap.Domain,
	}
	min, max := m.Scaler.Bounds()
	sub.ScalerMin, sub.ScalerMax = min, max

	offset, _ := m.VideoStates(videos[0])
	global := make([]int, 0, n) // the parent index of each sub-model state
	for lv, vi := range videos {
		sub.VideoIDs = append(sub.VideoIDs, m.VideoIDs[vi])
		sub.Offsets = append(sub.Offsets, len(sub.States))
		sub.LocalA = append(sub.LocalA, m.LocalA[vi]) // shared A1 block
		sub.Pi2 = append(sub.Pi2, m.Pi2[vi])
		copy(sub.B2.Row(lv), m.B2.Row(vi))
		lo, hi := m.VideoStates(vi)
		// The events slices are shared; the parent stays immutable.
		sub.States = append(sub.States, m.States[lo:hi]...)
		sub.StartMS = append(sub.StartMS, m.StartTimes()[lo:hi]...)
		for gi := lo; gi < hi; gi++ {
			global = append(global, gi)
			copy(sub.B1.Row(gi-offset), m.B1.Row(gi))
		}
	}
	sub.Pi1 = m.Pi1.Restrict(global)

	model, err := hmmm.FromSnapshot(sub)
	if err != nil {
		return nil, fmt.Errorf("shard: building sub-model for videos %v: %w", videos, err)
	}
	return &Shard{Model: model, Videos: append([]int(nil), videos...), Offset: offset}, nil
}
