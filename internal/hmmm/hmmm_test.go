package hmmm

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/matrix"
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
	for s, want := range []int{0, 0, 0, 1, 1} {
		if got := m.VideoOf(s); got != want {
			t.Errorf("VideoOf(%d) = %d, want %d", s, got, want)
		}
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

func TestVideoStatesPartition(t *testing.T) {
	// L1,2 (Section 4.2.3.3) links each state to exactly one video: the
	// per-video ranges tile [0, NumStates) in order and agree with each
	// state's VideoIdx.
	m := buildFixture(t, BuildOptions{})
	next := 0
	for v := 0; v < m.NumVideos(); v++ {
		lo, hi := m.VideoStates(v)
		if lo != next || hi < lo {
			t.Fatalf("video %d covers [%d, %d), want to start at %d", v, lo, hi, next)
		}
		for s := lo; s < hi; s++ {
			if m.VideoOf(s) != v {
				t.Errorf("state %d in video %d's range has VideoOf %d", s, v, m.VideoOf(s))
			}
		}
		next = hi
	}
	if next != m.NumStates() {
		t.Errorf("ranges cover %d of %d states", next, m.NumStates())
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
	if next.Pi1.At(0) <= next.Pi1.At(2) {
		t.Errorf("Pi1[0] = %v should exceed Pi1[2] = %v", next.Pi1.At(0), next.Pi1.At(2))
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

// TestTrainSharesUntouchedA1 pins Train's copy-on-write: the trained
// model has a LocalA slice of its own whose untouched entries are the
// parent's blocks and whose retrained ones are fresh, while Clone still
// copies every block.
func TestTrainSharesUntouchedA1(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	// States 0 and 1 are video 0's; videos 1 and 2 see no feedback.
	next := train(t, m, []mmm.AccessPattern{{States: []int{0, 1}, Freq: 3}}, nil)
	if &next.LocalA[0] == &m.LocalA[0] {
		t.Fatal("trained model shares the parent's LocalA slice")
	}
	if next.LocalA[0] == m.LocalA[0] {
		t.Error("retrained video 0 block is the parent's")
	}
	for vi := 1; vi < m.NumVideos(); vi++ {
		if next.LocalA[vi] != m.LocalA[vi] {
			t.Errorf("untouched video %d block was copied", vi)
		}
	}
	c := m.Clone()
	for vi := range m.LocalA {
		if c.LocalA[vi] == m.LocalA[vi] {
			t.Errorf("Clone shares video %d block", vi)
		}
	}
}

// TestTrainSharesWhatItDoesNotWrite pins the rest of Train's sharing:
// the states, B1, B2, P12 and B1' are the parent's, while Π1, A2 and Π2
// — which training replaces — are new.
func TestTrainSharesWhatItDoesNotWrite(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	next := train(t, m, []mmm.AccessPattern{{States: []int{0, 1}, Freq: 3}},
		[]mmm.AccessPattern{{States: []int{0, 1}, Freq: 1}})
	if &next.States[0] != &m.States[0] || &next.States[0].Events[0] != &m.States[0].Events[0] {
		t.Error("trained model copied the states")
	}
	for name, same := range map[string]bool{
		"B1": next.B1 == m.B1, "B2": next.B2 == m.B2, "P12": next.P12 == m.P12, "B1'": next.B1Prime == m.B1Prime,
	} {
		if !same {
			t.Errorf("trained model copied %s", name)
		}
	}
	if next.Pi1 == m.Pi1 || next.A2 == m.A2 || &next.Pi2[0] == &m.Pi2[0] {
		t.Error("trained model shares a retrained Π1, A2 or Π2 with its parent")
	}
}

// TestFromSnapshotRegeneratesA1 checks a decoded model holds its A1
// blocks as built ones are held: a gob round trip of a built or trained
// snapshot gives reflect.DeepEqual blocks (the Eq. 1 generator plus the
// rows feedback rewrote), and a compact round trip stores exactly the
// rows whose float32 values are not Eq. 1's.
func TestFromSnapshotRegeneratesA1(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	trained := train(t, m, []mmm.AccessPattern{{States: []int{0, 2}, Freq: 3}}, nil)
	for name, want := range map[string]*Model{"built": m, "trained": trained} {
		var s Snapshot
		if err := gob.NewDecoder(bytes.NewReader(snapshotBytes(t, want))).Decode(&s); err != nil {
			t.Fatal(err)
		}
		got, err := FromSnapshot(&s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.LocalA, want.LocalA) {
			t.Errorf("%s: decoded blocks %+v, want %+v", name, got.LocalA, want.LocalA)
		}
	}
	if trained.LocalA[0].Explicit(0) == nil || trained.LocalA[1].Explicit(0) != nil {
		t.Error("the fixture's retrain does not rewrite exactly video 0's rows")
	}
	got, err := FromCompactSnapshot(m.CompactSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for vi, a := range m.LocalA {
		buf := make([]float64, a.Rows())
		for i := 0; i < a.Rows(); i++ {
			exact := true
			for _, v := range a.Row(i, buf) {
				exact = exact && float64(float32(v)) == v
			}
			if stored := got.LocalA[vi].Explicit(i) != nil; stored == exact {
				t.Errorf("video %d row %d: stored = %v with float32-exact values = %v", vi, i, stored, exact)
			}
		}
	}
}

// TestLoadedA2StoresOnlyObservedRows checks a decoded model holds A2 as
// a built or trained one does: a gob round trip gives a reflect.DeepEqual
// A2 (1/M plus the rows a video pattern used), and a compact round trip
// holds the float32-rounded 1/M plus the same rows.
func TestLoadedA2StoresOnlyObservedRows(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	trained := train(t, m, nil, []mmm.AccessPattern{{States: []int{0, 2}, Freq: 2}})
	for name, want := range map[string]*Model{"built": m, "trained": trained} {
		var s Snapshot
		if err := gob.NewDecoder(bytes.NewReader(snapshotBytes(t, want))).Decode(&s); err != nil {
			t.Fatal(err)
		}
		got, err := FromSnapshot(&s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.A2, want.A2) {
			t.Errorf("%s: decoded A2 %+v, want %+v", name, got.A2, want.A2)
		}
		compact, err := FromCompactSnapshot(want.CompactSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.NumVideos(); i++ {
			observed := want == trained && i != 1
			if stored := compact.A2.Explicit(i) != nil; stored != observed {
				t.Errorf("%s: compact A2 row %d stored = %v, want %v", name, i, stored, observed)
			}
			for j := 0; j < m.NumVideos(); j++ {
				if got, w := compact.A2.At(i, j), float64(float32(want.A2.At(i, j))); got != w {
					t.Errorf("%s: compact A2(%d,%d) = %v, want %v", name, i, j, got, w)
				}
			}
		}
	}
	if m.A2.Explicit(0) != nil || trained.A2.Explicit(1) != nil || trained.A2.Explicit(0) == nil {
		t.Error("the fixture's A2 does not store exactly the observed rows")
	}
}

// TestValidateRefusesNaN: a NaN sums to NaN and is no non-negative
// number, so Validate refuses it in A1, A2, P12, Π1 and B1, and in a
// shard's sub-stochastic A2 and Π2.
func TestValidateRefusesNaN(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	nan := math.NaN()
	withNaN := func(rows [][]float64) *mmm.A2 {
		d := matrix.NewDense(len(rows), len(rows))
		for i, r := range rows {
			copy(d.Row(i), r)
		}
		a, err := mmm.A2FromDense(d)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a2 := withNaN([][]float64{{nan, 0.5, 0.5}, {1.0 / 3, 1.0 / 3, 1.0 / 3}, {1.0 / 3, 1.0 / 3, 1.0 / 3}})
	a1, err := mmm.FromRows([][]float64{{nan, 0.5, 0.5}, {0.5, 0.5}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(c *Model){
		"A1": func(c *Model) { c.LocalA = append([]*mmm.A1{a1}, m.LocalA[1:]...) },
		"A2": func(c *Model) { c.A2 = a2 },
		"P12": func(c *Model) {
			c.P12 = m.P12.Clone()
			c.P12.Set(0, 0, nan)
		},
		"Pi1": func(c *Model) { c.Pi1 = mmm.NewPi(append([]float64{nan}, m.Pi1.Values()[1:]...)) },
		"B1": func(c *Model) {
			c.B1 = m.B1.Clone()
			c.B1.Set(0, 0, nan)
		},
		"partial A2":  func(c *Model) { c.Partial, c.A2 = true, a2 },
		"partial Pi2": func(c *Model) { c.Partial, c.Pi2 = true, append([]float64{nan}, m.Pi2[1:]...) },
	}
	if m.LocalA[0].Rows() != 3 {
		t.Fatalf("video 0 has %d states, want 3", m.LocalA[0].Rows())
	}
	for name, corrupt := range cases {
		c := *m
		corrupt(&c)
		if err := c.Validate(1e-6); err == nil {
			t.Errorf("%s holding NaN passes Validate", name)
		}
	}
	if err := m.Validate(1e-6); err != nil {
		t.Fatalf("the fixture itself is invalid: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	c := m.Clone()
	if err := c.Validate(1e-9); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	c.P12.Set(0, 0, 0.99)
	c.States[0].Events[0] = videomodel.EventFoul
	if m.P12.At(0, 0) == 0.99 || m.States[0].Events[0] == videomodel.EventFoul {
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
