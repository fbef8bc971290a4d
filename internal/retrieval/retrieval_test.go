package retrieval

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// fixtureModel builds a 3-video HMMM with event-clustered synthetic
// features:
//
//	v0: [free_kick] [free_kick+goal] [corner_kick]
//	v1: [goal] [free_kick] [goal]
//	v2: [foul] [corner_kick]
func fixtureModel(t testing.TB) *hmmm.Model {
	t.Helper()
	rng := xrand.New(101)
	feats := make(map[videomodel.ShotID][]float64)
	gen := func(events []videomodel.Event) []float64 {
		f := []float64{
			rng.Norm(0.2, 0.03), // goal channel
			rng.Norm(0.2, 0.03), // free kick channel
			rng.Norm(0.2, 0.03), // corner channel
			rng.Norm(0.2, 0.03), // foul channel
		}
		for _, e := range events {
			switch e {
			case videomodel.EventGoal:
				f[0] = rng.Norm(0.9, 0.02)
			case videomodel.EventFreeKick:
				f[1] = rng.Norm(0.85, 0.02)
			case videomodel.EventCornerKick:
				f[2] = rng.Norm(0.8, 0.02)
			case videomodel.EventFoul:
				f[3] = rng.Norm(0.8, 0.02)
			}
		}
		return f
	}
	plans := [][][]videomodel.Event{
		{{videomodel.EventFreeKick}, {videomodel.EventFreeKick, videomodel.EventGoal}, {videomodel.EventCornerKick}},
		{{videomodel.EventGoal}, {videomodel.EventFreeKick}, {videomodel.EventGoal}},
		{{videomodel.EventFoul}, {videomodel.EventCornerKick}},
	}
	var videos []*videomodel.Video
	next := videomodel.ShotID(0)
	for vi, plan := range plans {
		v := &videomodel.Video{ID: videomodel.VideoID(vi + 1)}
		for si, events := range plan {
			s := &videomodel.Shot{
				ID: next, Video: v.ID, Index: si,
				StartMS: si * 1000, EndMS: (si + 1) * 1000,
				Events: events,
			}
			next++
			feats[s.ID] = gen(events)
			v.Shots = append(v.Shots, s)
		}
		videos = append(videos, v)
	}
	a, err := videomodel.NewArchive(videos)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(a, feats, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQueryValidate(t *testing.T) {
	if err := (Query{}).Validate(); err == nil {
		t.Error("empty query accepted")
	}
	if err := (NewQuery(videomodel.EventNone)).Validate(); err == nil {
		t.Error("EventNone accepted")
	}
	if err := (NewQuery(videomodel.EventGoal)).Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Error("nil model accepted")
	}
	m := fixtureModel(t)
	m.Pi1 = mmm.NewPi(append([]float64{99}, m.Pi1.Values()[1:]...)) // break an invariant
	if _, err := NewEngine(m, Options{}); err == nil {
		t.Error("invalid model accepted")
	}
	// An event past the concept axis is refused, not indexed out of the
	// engine's tables.
	m = fixtureModel(t)
	m.States = append([]hmmm.State(nil), m.States...)
	m.States[0].Events = []videomodel.Event{videomodel.EventFromIndex(m.NumConcepts())}
	if _, err := NewEngine(m, Options{}); err == nil {
		t.Error("model with an event past the concept axis accepted")
	}
}

func TestSimPrefersAnnotatedStates(t *testing.T) {
	m := fixtureModel(t)
	e, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Global state 3 is v1's goal shot; state 0 is v0's free kick.
	goalSim := e.Sim(3, videomodel.EventGoal)
	otherSim := e.Sim(0, videomodel.EventGoal)
	if goalSim <= otherSim {
		t.Errorf("sim(goal shot, goal) = %v should exceed sim(free kick shot, goal) = %v", goalSim, otherSim)
	}
}

func TestRetrieveFindsExactPattern(t *testing.T) {
	m := fixtureModel(t)
	e, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no matches for goal->free_kick")
	}
	top := res.Matches[0]
	if !ExactMatch(m, top, q) {
		t.Errorf("top match not annotation-exact: states %v", top.States)
	}
	// The only exact sequence is v1: global states 3 -> 4.
	if top.States[0] != 3 || top.States[1] != 4 {
		t.Errorf("top match states = %v, want [3 4]", top.States)
	}
	if len(top.Weights) != 2 || top.Score <= 0 {
		t.Errorf("match weights/score malformed: %+v", top)
	}
}

func TestRetrieveEmptyQueryError(t *testing.T) {
	e, _ := NewEngine(fixtureModel(t), Options{})
	if _, err := e.Retrieve(Query{}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestCrossVideoContinuation(t *testing.T) {
	m := fixtureModel(t)
	q := NewQuery(videomodel.EventCornerKick, videomodel.EventFoul)

	// Within any single video there is no corner followed by a foul.
	same, err := NewEngine(m, Options{AnnotatedOnly: true, CrossVideo: false})
	if err != nil {
		t.Fatal(err)
	}
	res, err := same.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		if ExactMatch(m, match, q) {
			t.Fatalf("unexpected same-video exact match: %v", match.States)
		}
	}

	cross, err := NewEngine(m, Options{AnnotatedOnly: true, CrossVideo: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err = cross.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, match := range res.Matches {
		if ExactMatch(m, match, q) {
			found = true
			if match.Videos[0] == match.Videos[1] {
				t.Errorf("cross-video match stayed in one video: %+v", match)
			}
		}
	}
	if !found {
		t.Error("cross-video continuation found no exact corner->foul pattern")
	}
}

func TestTemporalOrderWithinVideo(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{AnnotatedOnly: true, Beam: 4})
	q := NewQuery(videomodel.EventFreeKick, videomodel.EventGoal)
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		for i := 1; i < len(match.States); i++ {
			if match.Videos[i] == match.Videos[i-1] && match.States[i] <= match.States[i-1] {
				t.Errorf("non-monotone same-video steps: %v", match.States)
			}
		}
	}
}

func TestBeamWideningFindsMore(t *testing.T) {
	m := fixtureModel(t)
	q := NewQuery(videomodel.EventGoal)
	narrow, _ := NewEngine(m, Options{AnnotatedOnly: true, Beam: 1})
	wide, _ := NewEngine(m, Options{AnnotatedOnly: true, Beam: 8})
	rn, err := narrow.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wide.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Matches) < len(rn.Matches) {
		t.Errorf("beam 8 found %d, beam 1 found %d", len(rw.Matches), len(rn.Matches))
	}
	// Three goal shots exist: the wide beam should surface all of them.
	if len(rw.Matches) < 3 {
		t.Errorf("beam 8 found %d single-goal matches, want >= 3", len(rw.Matches))
	}
}

func TestRetrieveDeterministic(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{Beam: 4, CrossVideo: true})
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	a, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("match counts differ: %d vs %d", len(a.Matches), len(b.Matches))
	}
	for i := range a.Matches {
		if a.Matches[i].Score != b.Matches[i].Score {
			t.Fatalf("match %d score differs", i)
		}
	}
}

func TestBruteForceEnumeratesAll(t *testing.T) {
	m := fixtureModel(t)
	q := NewQuery(videomodel.EventFreeKick, videomodel.EventGoal)
	res, err := BruteForce(m, q, 100)
	if err != nil {
		t.Fatal(err)
	}
	// v0: free_kick at {0,1}, goal at {1}: sequences 0->1. v1: free_kick
	// at {4}, goal at {5}: 4->5. Total 2.
	if len(res.Matches) != 2 {
		t.Fatalf("brute force found %d sequences, want 2", len(res.Matches))
	}
	for _, match := range res.Matches {
		if !ExactMatch(m, match, q) {
			t.Errorf("brute force returned non-exact match %v", match.States)
		}
	}
	if got := GroundTruthCount(m, q); got != 2 {
		t.Errorf("GroundTruthCount = %d, want 2", got)
	}
}

func TestBruteForceRanksDescending(t *testing.T) {
	m := fixtureModel(t)
	res, err := BruteForce(m, NewQuery(videomodel.EventGoal), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i].Score > res.Matches[i-1].Score {
			t.Error("brute force matches not sorted by score")
		}
	}
}

func TestBruteForceErrors(t *testing.T) {
	if _, err := BruteForce(fixtureModel(t), Query{}, 5); err == nil {
		t.Error("empty query accepted")
	}
}

func TestGreedyTopMatchAgreesWithBruteForce(t *testing.T) {
	m := fixtureModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	bf, err := BruteForce(m, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(m, Options{AnnotatedOnly: true})
	greedy, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Matches) == 0 || len(greedy.Matches) == 0 {
		t.Fatal("one of the methods found nothing")
	}
	bt, gt := bf.Matches[0], greedy.Matches[0]
	if bt.States[0] != gt.States[0] || bt.States[1] != gt.States[1] {
		t.Errorf("top matches differ: brute %v vs greedy %v", bt.States, gt.States)
	}
}

func TestGreedyCostLowerThanBruteForce(t *testing.T) {
	// Build a denser corpus: one video with many alternating goal / free
	// kick shots so brute force enumerates combinatorially many paths.
	rng := xrand.New(55)
	feats := make(map[videomodel.ShotID][]float64)
	v := &videomodel.Video{ID: 1}
	for i := 0; i < 24; i++ {
		ev := videomodel.EventGoal
		if i%2 == 1 {
			ev = videomodel.EventFreeKick
		}
		s := &videomodel.Shot{
			ID: videomodel.ShotID(i), Video: 1, Index: i,
			StartMS: i * 1000, EndMS: (i + 1) * 1000,
			Events: []videomodel.Event{ev},
		}
		feats[s.ID] = []float64{rng.Float64(), rng.Float64()}
		v.Shots = append(v.Shots, s)
	}
	a, err := videomodel.NewArchive([]*videomodel.Video{v})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(a, feats, hmmm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(
		videomodel.EventGoal, videomodel.EventFreeKick, videomodel.EventGoal, videomodel.EventFreeKick,
	)
	bf, err := BruteForce(m, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(m, Options{AnnotatedOnly: true})
	greedy, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Matches) == 0 {
		t.Fatal("greedy found nothing")
	}
	if greedy.Cost.SimEvals*5 > bf.Cost.SimEvals {
		t.Errorf("greedy sim evals %d not clearly below brute force %d", greedy.Cost.SimEvals, bf.Cost.SimEvals)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TopK != DefaultTopK || o.Beam != DefaultBeam {
		t.Errorf("defaults = %+v", o)
	}
}

func TestExactMatchLengthMismatch(t *testing.T) {
	m := fixtureModel(t)
	q := NewQuery(videomodel.EventGoal, videomodel.EventGoal)
	if ExactMatch(m, Match{States: []int{3}}, q) {
		t.Error("length mismatch accepted")
	}
}

func BenchmarkRetrieveGreedySmall(b *testing.B) {
	m := fixtureModel(b)
	e, _ := NewEngine(m, Options{AnnotatedOnly: true})
	q := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Retrieve(q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConjunctionStepQuery(t *testing.T) {
	m := fixtureModel(t)
	// First step requires a shot annotated with BOTH free kick and goal
	// (the paper's Section-3 example opening), then a corner kick. Only
	// v0 state 1 -> state 2 satisfies it.
	q := Query{Steps: []Step{
		{Events: []videomodel.Event{videomodel.EventFreeKick, videomodel.EventGoal}},
		{Events: []videomodel.Event{videomodel.EventCornerKick}},
	}}
	e, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Fatalf("conjunction query found %d matches, want 1", len(res.Matches))
	}
	if got := res.Matches[0].States; got[0] != 1 || got[1] != 2 {
		t.Errorf("match states = %v, want [1 2]", got)
	}
	if !ExactMatch(m, res.Matches[0], q) {
		t.Error("conjunction match not exact")
	}
}

func TestQueryStepValidation(t *testing.T) {
	if err := (Query{Steps: []Step{{}}}).Validate(); err == nil {
		t.Error("empty step accepted")
	}
	q := NewQuery(videomodel.EventGoal, videomodel.EventFoul)
	if len(q.Steps) != 2 || cap(q.Steps[0].Events) != 1 || q.Steps[1].Events[0] != videomodel.EventFoul {
		t.Errorf("NewQuery steps = %+v, want one capacity-clipped event per step", q.Steps)
	}
}

func TestGapConstraintsFilterCandidates(t *testing.T) {
	m := fixtureModel(t)
	// v1 states: goal@0ms(3), free_kick@1000ms(4), goal@2000ms(5).
	// goal ->[<1.5s] free_kick matches 3->4 (gap 1000ms).
	tight := Query{Steps: []Step{
		{Events: []videomodel.Event{videomodel.EventGoal}},
		{Events: []videomodel.Event{videomodel.EventFreeKick}, MaxGapMS: 1500},
	}}
	e, err := NewEngine(m, Options{AnnotatedOnly: true, Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Retrieve(tight)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].States[0] != 3 {
		t.Fatalf("tight gap query matches = %+v, want only [3 4]", res.Matches)
	}

	// With MinGapMS above the actual gap nothing matches.
	impossible := Query{Steps: []Step{
		{Events: []videomodel.Event{videomodel.EventGoal}},
		{Events: []videomodel.Event{videomodel.EventFreeKick}, MinGapMS: 5000},
	}}
	res, err = e.Retrieve(impossible)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		if ExactMatch(m, match, impossible) {
			t.Errorf("impossible gap query returned exact match %v", match.States)
		}
	}
}

func TestGapConstraintValidation(t *testing.T) {
	bad := []Query{
		{Steps: []Step{{Events: []videomodel.Event{videomodel.EventGoal}, MaxGapMS: 10}}},                                                                 // gap on first step
		{Steps: []Step{{Events: []videomodel.Event{videomodel.EventGoal}}, {Events: []videomodel.Event{videomodel.EventFoul}, MinGapMS: -1}}},             // negative
		{Steps: []Step{{Events: []videomodel.Event{videomodel.EventGoal}}, {Events: []videomodel.Event{videomodel.EventFoul}, MinGapMS: 9, MaxGapMS: 3}}}, // inverted
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid gap query accepted", i)
		}
	}
}

func TestGapBlocksCrossVideoHop(t *testing.T) {
	m := fixtureModel(t)
	// corner_kick -> foul exists only across videos; a MaxGap forbids the
	// hop, so no exact match may be returned.
	q := Query{Steps: []Step{
		{Events: []videomodel.Event{videomodel.EventCornerKick}},
		{Events: []videomodel.Event{videomodel.EventFoul}, MaxGapMS: 60000},
	}}
	e, err := NewEngine(m, Options{AnnotatedOnly: true, CrossVideo: true, Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		if ExactMatch(m, match, q) {
			t.Errorf("gap-constrained query crossed videos: %v", match.States)
		}
	}
}

func TestGroundTruthCountWithGaps(t *testing.T) {
	m := fixtureModel(t)
	free := NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	unconstrained := GroundTruthCount(m, free)
	q := Query{Steps: []Step{
		{Events: []videomodel.Event{videomodel.EventGoal}},
		{Events: []videomodel.Event{videomodel.EventFreeKick}, MaxGapMS: 1500},
	}}
	constrained := GroundTruthCount(m, q)
	if constrained > unconstrained {
		t.Errorf("constrained count %d exceeds unconstrained %d", constrained, unconstrained)
	}
	if constrained != 1 {
		t.Errorf("constrained count = %d, want 1", constrained)
	}
	bf, err := BruteForce(m, q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Matches) != constrained {
		t.Errorf("brute force found %d, ground truth %d", len(bf.Matches), constrained)
	}
}

// TestTopKIsPrefixOfLargerTopK checks that the threshold pruning in the
// top-K accumulator is exact: an exhaustive search for the top k returns
// precisely the first k matches of a search for more.
func TestTopKIsPrefixOfLargerTopK(t *testing.T) {
	m := equivModel(t)
	most := 0
	for qi, q := range equivQueries(m) {
		opts := Options{TopK: 10, Beam: 4, CrossVideo: true, AnnotatedOnly: true}
		wide := mustRetrieve(t, m, opts, q)
		most = max(most, len(wide.Matches))
		for _, k := range []int{1, 3} {
			opts.TopK = k
			narrow := mustRetrieve(t, m, opts, q)
			want := wide.Matches[:min(k, len(wide.Matches))]
			if !reflect.DeepEqual(narrow.Matches, want) {
				t.Errorf("q=%d TopK=%d: %+v, want prefix %+v", qi, k, narrow.Matches, want)
			}
		}
	}
	if most < 3 {
		t.Errorf("no query returned more than %d matches: the prefix check is vacuous", most)
	}
}

func TestScopeRestrictsToVideo(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{AnnotatedOnly: true, Beam: 8})
	q := NewQuery(videomodel.EventGoal)
	q.Scope = &Scope{Video: 2} // only v1 (VideoID 2)
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("scoped query found nothing in its video")
	}
	for _, match := range res.Matches {
		for _, vid := range match.Videos {
			if vid != 2 {
				t.Errorf("scoped match escaped to video %d", vid)
			}
		}
	}
	// Unscoped returns more goal matches (v0 has one too).
	free, err := e.Retrieve(NewQuery(videomodel.EventGoal))
	if err != nil {
		t.Fatal(err)
	}
	if len(free.Matches) <= len(res.Matches) {
		t.Errorf("unscoped %d matches should exceed scoped %d", len(free.Matches), len(res.Matches))
	}
}

func TestScopeTimeWindow(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{AnnotatedOnly: true, Beam: 8})
	// v1 goals start at 0ms (state 3) and 2000ms (state 5): a window
	// [1500, 99999) admits only the later one.
	q := NewQuery(videomodel.EventGoal)
	q.Scope = &Scope{Video: 2, FromMS: 1500, ToMS: 99999}
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].States[0] != 5 {
		t.Errorf("windowed matches = %+v, want only state 5", res.Matches)
	}
}

func TestScopeDisablesCrossVideoHop(t *testing.T) {
	m := fixtureModel(t)
	e, _ := NewEngine(m, Options{AnnotatedOnly: true, CrossVideo: true, Beam: 8})
	// corner -> foul only exists across videos; with a video scope the
	// hop is forbidden, so no exact match may appear.
	q := NewQuery(videomodel.EventCornerKick, videomodel.EventFoul)
	q.Scope = &Scope{Video: 1}
	res, err := e.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		if ExactMatch(m, match, q) {
			t.Errorf("scoped query hopped videos: %v", match.Videos)
		}
	}
}

func TestScopeValidation(t *testing.T) {
	bad := []Query{
		{Steps: NewQuery(videomodel.EventGoal).Steps, Scope: &Scope{FromMS: -1}},
		{Steps: NewQuery(videomodel.EventGoal).Steps, Scope: &Scope{FromMS: 10, ToMS: 5}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: bad scope accepted", i)
		}
	}
}

func TestBruteForceHonorsScope(t *testing.T) {
	m := fixtureModel(t)
	q := NewQuery(videomodel.EventGoal)
	q.Scope = &Scope{Video: 2}
	res, err := BruteForce(m, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range res.Matches {
		if match.Videos[0] != 2 {
			t.Errorf("brute force escaped scope: %v", match.Videos)
		}
	}
	if len(res.Matches) != 2 {
		t.Errorf("scoped brute force = %d matches, want v1's 2 goals", len(res.Matches))
	}
}

func TestRetrievalInvariantsProperty(t *testing.T) {
	// Property over random corpora and queries: results are sorted, carry
	// no duplicate state sequences, respect TopK, have positive-length
	// step lists matching the query, and monotone same-video steps.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		corpusCfg := dataset.Config{
			Seed:      seed,
			Videos:    2 + rng.Intn(4),
			Shots:     60 + rng.Intn(80),
			Annotated: 12 + rng.Intn(20),
			Fast:      true,
		}
		if corpusCfg.Annotated < corpusCfg.Videos {
			corpusCfg.Annotated = corpusCfg.Videos
		}
		corpus, err := dataset.Build(corpusCfg)
		if err != nil {
			return false
		}
		m, err := hmmm.Build(corpus.Archive, corpus.Features, hmmm.BuildOptions{})
		if err != nil {
			return false
		}
		e, err := NewEngine(m, Options{
			AnnotatedOnly: rng.Bool(0.5),
			CrossVideo:    rng.Bool(0.5),
			Beam:          1 + rng.Intn(6),
			TopK:          1 + rng.Intn(8),
		})
		if err != nil {
			return false
		}
		events := videomodel.AllEvents()
		var qe []videomodel.Event
		for i := 0; i < 1+rng.Intn(3); i++ {
			qe = append(qe, events[rng.Intn(len(events))])
		}
		res, err := e.Retrieve(NewQuery(qe...))
		if err != nil {
			return false
		}
		if len(res.Matches) > 1+rng.Intn(8)+8 { // TopK upper bound is 8
			return false
		}
		seen := map[string]bool{}
		for i, match := range res.Matches {
			if len(match.States) != len(qe) {
				return false
			}
			if i > 0 && match.Score > res.Matches[i-1].Score {
				return false
			}
			k := fmt.Sprint(match.States)
			for j := 1; j < len(match.States); j++ {
				if match.Videos[j] == match.Videos[j-1] && match.States[j] <= match.States[j-1] {
					return false
				}
			}
			_ = seen[k] // per-video duplicates are legal pre-merge; just exercise the key
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
