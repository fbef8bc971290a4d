package hmmm

import (
	"math"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// fixtureArchive builds a small archive: 3 videos with a mix of annotated
// and plain shots, plus synthetic 4-dimensional feature vectors whose
// values cluster by event so P1,2 learning has signal.
func fixtureArchive(t testing.TB) (*videomodel.Archive, map[videomodel.ShotID][]float64) {
	t.Helper()
	rng := xrand.New(77)
	var videos []*videomodel.Video
	feats := make(map[videomodel.ShotID][]float64)
	nextID := videomodel.ShotID(0)

	// Event-conditioned feature generator: goal-ish shots have high f0,
	// free kicks high f1, corners high f2; f3 is noise everywhere.
	gen := func(events []videomodel.Event) []float64 {
		f := []float64{
			rng.Norm(0.2, 0.05),
			rng.Norm(0.2, 0.05),
			rng.Norm(0.2, 0.05),
			rng.Float64() * 10,
		}
		for _, e := range events {
			switch e {
			case videomodel.EventGoal:
				f[0] = rng.Norm(0.9, 0.02)
			case videomodel.EventFreeKick:
				f[1] = rng.Norm(0.85, 0.02)
			case videomodel.EventCornerKick:
				f[2] = rng.Norm(0.8, 0.02)
			}
		}
		return f
	}

	plans := [][][]videomodel.Event{
		{ // video 0
			{videomodel.EventFreeKick},
			nil,
			{videomodel.EventFreeKick, videomodel.EventGoal},
			nil,
			{videomodel.EventCornerKick},
		},
		{ // video 1
			nil,
			{videomodel.EventGoal},
			{videomodel.EventFreeKick},
			nil,
		},
		{ // video 2: no annotations at all
			nil,
			nil,
		},
	}
	for vi, plan := range plans {
		v := &videomodel.Video{ID: videomodel.VideoID(vi + 1), Name: "v"}
		for si, events := range plan {
			s := &videomodel.Shot{
				ID:      nextID,
				Video:   v.ID,
				Index:   si,
				StartMS: si * 2000,
				EndMS:   (si + 1) * 2000,
				Events:  events,
			}
			nextID++
			v.Shots = append(v.Shots, s)
			if s.Annotated() {
				feats[s.ID] = gen(events)
			}
		}
		videos = append(videos, v)
	}
	a, err := videomodel.NewArchive(videos)
	if err != nil {
		t.Fatal(err)
	}
	return a, feats
}

func buildFixture(t testing.TB, opts BuildOptions) *Model {
	t.Helper()
	a, feats := fixtureArchive(t)
	m, err := Build(a, feats, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildShapes(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	if m.NumStates() != 5 {
		t.Fatalf("NumStates = %d, want 5", m.NumStates())
	}
	if m.NumVideos() != 3 {
		t.Fatalf("NumVideos = %d, want 3", m.NumVideos())
	}
	if m.K() != 4 {
		t.Fatalf("K = %d, want 4", m.K())
	}
	if m.NumConcepts() != videomodel.NumEvents {
		t.Fatalf("NumConcepts = %d, want %d", m.NumConcepts(), videomodel.NumEvents)
	}
	if err := m.Validate(1e-9); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildLocalABlocks(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	// Video 0 has NE = [1, 2, 1]: the paper's worked example.
	a := m.LocalA[0]
	if a.Rows() != 3 {
		t.Fatalf("video 0 local A rows = %d, want 3", a.Rows())
	}
	if got := a.At(0, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("A1(1,2) = %v, want 2/3", got)
	}
	// Video 2 has no annotations: empty block.
	if m.LocalA[2].Rows() != 0 {
		t.Errorf("video 2 local A rows = %d, want 0", m.LocalA[2].Rows())
	}
}

func TestBuildOffsets(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	lo, hi := m.VideoStates(0)
	if lo != 0 || hi != 3 {
		t.Errorf("video 0 states = [%d,%d), want [0,3)", lo, hi)
	}
	lo, hi = m.VideoStates(1)
	if lo != 3 || hi != 5 {
		t.Errorf("video 1 states = [%d,%d), want [3,5)", lo, hi)
	}
	lo, hi = m.VideoStates(2)
	if lo != hi {
		t.Errorf("video 2 states = [%d,%d), want empty", lo, hi)
	}
	if m.GlobalIndex(1, 1) != 4 {
		t.Errorf("GlobalIndex(1,1) = %d, want 4", m.GlobalIndex(1, 1))
	}
}

func TestBuildB2Counts(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	fk := videomodel.EventFreeKick.Index()
	if got := m.B2.At(0, fk); got != 2 {
		t.Errorf("B2(video0, free_kick) = %v, want 2", got)
	}
	goal := videomodel.EventGoal.Index()
	if got := m.B2.At(1, goal); got != 1 {
		t.Errorf("B2(video1, goal) = %v, want 1", got)
	}
}

func TestBuildB1Normalized(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	for i := 0; i < m.B1.Rows(); i++ {
		for j := 0; j < m.B1.Cols(); j++ {
			v := m.B1.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("B1(%d,%d) = %v outside [0,1]", i, j, v)
			}
		}
	}
}

func TestBuildP12UniformByDefault(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	want := 1.0 / 4
	for c := 0; c < m.P12.Rows(); c++ {
		for f := 0; f < m.P12.Cols(); f++ {
			if m.P12.At(c, f) != want {
				t.Fatalf("P12(%d,%d) = %v, want uniform %v", c, f, m.P12.At(c, f), want)
			}
		}
	}
}

func TestLearnP12UpweightsConsistentFeatures(t *testing.T) {
	m := buildFixture(t, BuildOptions{LearnP12: true})
	// Free kick shots all have f1 ≈ 0.85 (low std) while f3 is pure
	// noise (high std): the learned weight of f1 must dominate f3.
	row := m.P12.Row(videomodel.EventFreeKick.Index())
	if row[1] <= row[3] {
		t.Errorf("P12(free_kick): consistent feature weight %v should exceed noisy %v", row[1], row[3])
	}
	var sum float64
	for _, v := range row {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("learned P12 row sums to %v", sum)
	}
	// Concepts with < 2 annotated shots keep the uniform row.
	row = m.P12.Row(videomodel.EventRedCard.Index())
	for _, v := range row {
		if v != 0.25 {
			t.Errorf("unseen concept P12 row = %v, want uniform", row)
			break
		}
	}
}

func TestB1PrimeMeans(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	goalRow := m.B1Prime.Row(videomodel.EventGoal.Index())
	// Both goal shots have raw f0 ≈ 0.9 which is the max, so normalized
	// B1 f0 ≈ 1 for them.
	if goalRow[0] < 0.8 {
		t.Errorf("B1'(goal, f0) = %v, want near 1", goalRow[0])
	}
	// Unannotated concept rows are zero.
	zero := m.B1Prime.Row(videomodel.EventFoul.Index())
	for _, v := range zero {
		if v != 0 {
			t.Errorf("B1'(foul) = %v, want zeros", zero)
			break
		}
	}
}

func TestL12Partition(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	l := m.L12()
	for s := 0; s < m.NumStates(); s++ {
		var sum float64
		for v := 0; v < m.NumVideos(); v++ {
			sum += l.At(v, s)
		}
		if sum != 1 {
			t.Errorf("state %d links to %v videos, want exactly 1", s, sum)
		}
	}
	if l.At(m.States[4].VideoIdx, 4) != 1 {
		t.Error("L12 does not match state bookkeeping")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil, BuildOptions{}); err == nil {
		t.Error("nil archive accepted")
	}
	a, feats := fixtureArchive(t)
	// Remove one feature vector.
	for id := range feats {
		delete(feats, id)
		break
	}
	if _, err := Build(a, feats, BuildOptions{}); err == nil {
		t.Error("missing feature vector accepted")
	}

	a2, feats2 := fixtureArchive(t)
	for id := range feats2 {
		feats2[id] = feats2[id][:2] // ragged
		break
	}
	if _, err := Build(a2, feats2, BuildOptions{}); err == nil {
		t.Error("ragged feature vectors accepted")
	}
}

func TestBuildNoAnnotations(t *testing.T) {
	v := &videomodel.Video{ID: 1, Shots: []*videomodel.Shot{{ID: 0, Video: 1, Index: 0}}}
	a, err := videomodel.NewArchive([]*videomodel.Video{v})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(a, nil, BuildOptions{}); err == nil {
		t.Error("archive without annotated shots accepted")
	}
}

// train applies one round of feedback and fails the test on error.
func train(t *testing.T, m *Model, shot, video []mmm.AccessPattern) *Model {
	t.Helper()
	next, err := m.Train(shot, video, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestTrainShotLevelReinforces(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	before := m.LocalA[0].At(0, 1)
	// Positive pattern: video 0 states 0 -> 1 (global 0 -> 1).
	next := train(t, m, []mmm.AccessPattern{{States: []int{0, 1}, Freq: 10}}, nil)
	after := next.LocalA[0].At(0, 1)
	if after <= before {
		t.Errorf("A1(0,1) = %v after feedback, want > %v", after, before)
	}
	if err := next.Validate(1e-9); err != nil {
		t.Fatalf("model invalid after training: %v", err)
	}
	// Π1 must now favor state 0 (the pattern's initial state).
	if next.Pi1[0] <= next.Pi1[2] {
		t.Errorf("Pi1[0] = %v should exceed Pi1[2] = %v", next.Pi1[0], next.Pi1[2])
	}
}

func TestTrainShotLevelCrossVideoPattern(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	// Pattern spans videos 0 and 1: global states 2 (video 0) and 3
	// (video 1). Neither local update may fail, and single-state
	// fragments must not corrupt stochasticity.
	next := train(t, m, []mmm.AccessPattern{{States: []int{2, 3}, Freq: 5}}, nil)
	if err := next.Validate(1e-9); err != nil {
		t.Fatalf("model invalid after cross-video training: %v", err)
	}
}

func TestTrainShotLevelRejectsBadState(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	next, err := m.Train([]mmm.AccessPattern{{States: []int{99}, Freq: 1}}, nil, DefaultTrainOptions())
	if err == nil || next != nil {
		t.Errorf("out-of-range state accepted: model %v, err %v", next, err)
	}
}

func TestTrainVideoLevel(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	next := train(t, m, nil, []mmm.AccessPattern{{States: []int{0, 1}, Freq: 4}})
	if next.A2.At(0, 1) <= next.A2.At(0, 2) {
		t.Errorf("A2(0,1) = %v should exceed A2(0,2) = %v after co-access", next.A2.At(0, 1), next.A2.At(0, 2))
	}
	if err := next.Validate(1e-9); err != nil {
		t.Fatalf("model invalid after video training: %v", err)
	}
}

// TestTrainLeavesModelUntouched pins the value contract: training returns
// a new model and the input stays bit-identical to a copy taken before,
// including when training fails part-way.
func TestTrainLeavesModelUntouched(t *testing.T) {
	m := buildFixture(t, BuildOptions{LearnP12: true})
	want := m.Clone()
	next := train(t, m,
		[]mmm.AccessPattern{{States: []int{0, 1}, Freq: 10}, {States: []int{3, 4}, Freq: 2}},
		[]mmm.AccessPattern{{States: []int{0, 1}, Freq: 4}})
	if !reflect.DeepEqual(m, want) {
		t.Fatal("Train mutated its receiver")
	}
	if reflect.DeepEqual(next, want) {
		t.Fatal("Train returned an untrained model")
	}
	// The shot level trains, then the video level rejects video 7.
	if bad, err := m.Train([]mmm.AccessPattern{{States: []int{0, 1}, Freq: 1}},
		[]mmm.AccessPattern{{States: []int{7}, Freq: 1}}, DefaultTrainOptions()); err == nil || bad != nil {
		t.Fatalf("out-of-range video accepted: model %v, err %v", bad, err)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatal("a failed Train mutated its receiver")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	c := m.Clone()
	if err := c.Validate(1e-9); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	c.P12.Set(0, 0, 0.99)
	c.LocalA[0].Set(0, 1, 0.5)
	c.States[0].Events[0] = videomodel.EventFoul
	if m.P12.At(0, 0) == 0.99 || m.LocalA[0].At(0, 1) == 0.5 || m.States[0].Events[0] == videomodel.EventFoul {
		t.Error("clone shares storage with the original")
	}
}

func TestStateHasEvent(t *testing.T) {
	s := State{Events: []videomodel.Event{videomodel.EventGoal}}
	if !s.HasEvent(videomodel.EventGoal) || s.HasEvent(videomodel.EventFoul) {
		t.Error("State.HasEvent wrong")
	}
}

func TestStationaryPi1(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	pi, err := m.StationaryPi1()
	if err != nil {
		t.Fatal(err)
	}
	if len(pi) != m.NumStates() {
		t.Fatalf("length = %d, want %d", len(pi), m.NumStates())
	}
	var sum float64
	for _, p := range pi {
		if p < 0 {
			t.Fatal("negative stationary probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary Pi1 sums to %v", sum)
	}
	// The temporal A1 chains drift toward each video's last state, so
	// final states should carry more mass than first states.
	lo, hi := m.VideoStates(0)
	if pi[hi-1] <= pi[lo] {
		t.Errorf("terminal state mass %v should exceed first state %v", pi[hi-1], pi[lo])
	}
}

func TestMeanA1EntropyDropsWithTraining(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	before := m.MeanA1Entropy()
	if before <= 0 {
		t.Fatalf("initial entropy = %v, want > 0", before)
	}
	next := train(t, m, []mmm.AccessPattern{{States: []int{0, 1}, Freq: 20}}, nil)
	if after := next.MeanA1Entropy(); after >= before {
		t.Errorf("entropy after training = %v, want < %v", after, before)
	}
}
