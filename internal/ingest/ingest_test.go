package ingest

import (
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/videomodel"
)

// sharedClassifier trains the event tree once; training renders 9 classes
// x N shots and is the slow part of these tests.
var sharedClassifier *mining.Tree

func classifier(t *testing.T) *mining.Tree {
	t.Helper()
	if sharedClassifier == nil {
		tree, err := TrainClassifier(1, 12, mining.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sharedClassifier = tree
	}
	return sharedClassifier
}

func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline(shotdetect.DefaultConfig(), classifier(t), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(shotdetect.DefaultConfig(), nil, 0.5); err == nil {
		t.Error("nil classifier accepted")
	}
	tree, err := mining.Train([]mining.Sample{{Features: []float64{1, 2}, Label: 0}}, mining.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(shotdetect.DefaultConfig(), tree, 0.5); err == nil {
		t.Error("wrong-width classifier accepted")
	}
	if _, err := NewPipeline(shotdetect.DefaultConfig(), classifier(t), 1.5); err == nil {
		t.Error("bad confidence accepted")
	}
	bad := shotdetect.DefaultConfig()
	bad.Bins = 0
	if _, err := NewPipeline(bad, classifier(t), 0.5); err == nil {
		t.Error("bad detector config accepted")
	}
}

func TestTrainClassifierValidation(t *testing.T) {
	if _, err := TrainClassifier(1, 1, mining.Config{}); err == nil {
		t.Error("samplesPerClass=1 accepted")
	}
}

func TestClassifierLearnsEvents(t *testing.T) {
	tree := classifier(t)
	if tree.NumFeatures() != 20 {
		t.Fatalf("classifier features = %d", tree.NumFeatures())
	}
	// It should at least separate held-out goals from goal kicks.
	raw := SynthesizeRaw(77, "probe", []videomodel.Event{videomodel.EventGoal}, 3000)
	p := pipeline(t)
	res, err := p.Segment(raw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Video == nil || len(res.Video.Shots) == 0 {
		t.Fatal("segmentation produced no shots")
	}
}

func TestSegmentErrors(t *testing.T) {
	p := pipeline(t)
	if _, err := p.Segment(nil, 1, 0); err == nil {
		t.Error("nil raw accepted")
	}
	raw := SynthesizeRaw(3, "x", []videomodel.Event{videomodel.EventGoal}, 2000)
	raw.Audio = nil
	if _, err := p.Segment(raw, 1, 0); err == nil {
		t.Error("missing audio accepted")
	}
	raw = SynthesizeRaw(3, "x", []videomodel.Event{videomodel.EventGoal}, 2000)
	raw.FramePeriodMS = 0
	if _, err := p.Segment(raw, 1, 0); err == nil {
		t.Error("zero frame period accepted")
	}
}

func TestSegmentProducesContiguousShots(t *testing.T) {
	p := pipeline(t)
	classes := []videomodel.Event{
		videomodel.EventGoalKick, videomodel.EventGoal,
		videomodel.EventNone, videomodel.EventYellowCard,
	}
	raw := SynthesizeRaw(9, "match", classes, 3000)
	res, err := p.Segment(raw, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	cursor := 0
	for i, s := range res.Video.Shots {
		if s.StartMS != cursor {
			t.Fatalf("shot %d starts at %d, want %d", i, s.StartMS, cursor)
		}
		cursor = s.EndMS
		if s.Video != 5 || s.Index != i {
			t.Fatalf("shot %d bookkeeping wrong: %+v", i, s)
		}
		if s.Frames != nil || s.Audio != nil {
			t.Fatal("segment retained media")
		}
	}
	if cursor != raw.Duration() {
		t.Errorf("shots cover %dms of %dms", cursor, raw.Duration())
	}
	if res.Video.Shots[0].ID != 100 {
		t.Errorf("first shot ID = %d, want 100", res.Video.Shots[0].ID)
	}
}

// TestSegmentParallelBitIdentical pins the par disjoint-slot contract on
// the ingest pipeline: the segmented video, the per-shot features, and
// the annotation count are bit-identical for every worker count,
// including the serial degenerate case.
func TestSegmentParallelBitIdentical(t *testing.T) {
	classes := []videomodel.Event{
		videomodel.EventGoal, videomodel.EventNone, videomodel.EventGoalKick,
		videomodel.EventYellowCard, videomodel.EventCornerKick, videomodel.EventNone,
		videomodel.EventFreeKick, videomodel.EventGoal, videomodel.EventPlayerChange,
	}
	raw := SynthesizeRaw(63, "parallel-match", classes, 3000)

	serial := pipeline(t)
	serial.Workers = 1
	want, err := serial.Segment(raw, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want.AutoAnnotated == 0 {
		t.Fatal("serial baseline annotated nothing; the comparison would be vacuous")
	}
	for _, workers := range []int{0, 2, 3, 4} {
		p := pipeline(t)
		p.Workers = workers
		got, err := p.Segment(raw, 7, 42)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: segmentation differs from serial result", workers)
		}
	}
}

// TestSegmentFeedsOfflineBuild grows an archive the only way a model
// grows: segment the raw video, add it to the archive, and build a new
// model over the union. The classifier's annotated shots become states of
// the new video, and queries reach them.
func TestSegmentFeedsOfflineBuild(t *testing.T) {
	corpus, err := dataset.Build(dataset.Config{Seed: 21, Videos: 4, Shots: 120, Annotated: 24, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	// Event-heavy raw footage so the classifier finds states to add.
	classes := []videomodel.Event{
		videomodel.EventGoal, videomodel.EventGoalKick, videomodel.EventGoal,
		videomodel.EventYellowCard, videomodel.EventPlayerChange,
	}
	raw := SynthesizeRaw(31, "new-match", classes, 4000)
	res, err := pipeline(t).Segment(raw, 99, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoAnnotated == 0 || len(res.Features) != res.AutoAnnotated {
		t.Fatalf("annotated %d shots with %d feature vectors", res.AutoAnnotated, len(res.Features))
	}
	archive, err := videomodel.NewArchive(append(append([]*videomodel.Video(nil), corpus.Archive.Videos...), res.Video))
	if err != nil {
		t.Fatal(err)
	}
	feats := make(map[videomodel.ShotID][]float64)
	for _, src := range []map[videomodel.ShotID][]float64{corpus.Features, res.Features} {
		for id, f := range src {
			feats[id] = f
		}
	}
	model, err := hmmm.Build(archive, feats, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	vi := model.NumVideos() - 1
	if model.VideoIDs[vi] != 99 {
		t.Fatalf("last video = %d, want the segmented one", model.VideoIDs[vi])
	}
	if lo, hi := model.VideoStates(vi); hi-lo != res.AutoAnnotated {
		t.Errorf("segmented video has %d states, want %d", hi-lo, res.AutoAnnotated)
	}
	eng, err := retrieval.NewEngine(model, retrieval.Options{AnnotatedOnly: true, Beam: 4, TopK: model.NumStates()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Retrieve(retrieval.NewQuery(res.Video.AnnotatedShots()[0].Events[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got.Matches {
		if m.Videos[0] == 99 {
			return
		}
	}
	t.Error("no match from the segmented video")
}

// TestSegmentBelowConfidenceAnnotatesNothing checks the confidence floor:
// a pipeline no classification can satisfy keeps every shot unannotated
// and returns no feature vectors.
func TestSegmentBelowConfidenceAnnotatesNothing(t *testing.T) {
	p, err := NewPipeline(shotdetect.DefaultConfig(), classifier(t), 0.999999)
	if err != nil {
		t.Fatal(err)
	}
	raw := SynthesizeRaw(41, "quiet", []videomodel.Event{videomodel.EventNone, videomodel.EventNone}, 3000)
	res, err := p.Segment(raw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoAnnotated != 0 || len(res.Features) != 0 || len(res.Video.AnnotatedShots()) != 0 {
		t.Errorf("annotated %d shots (%d feature vectors) at an unreachable confidence",
			res.AutoAnnotated, len(res.Features))
	}
}

func TestSliceAudio(t *testing.T) {
	clip := &videomodel.AudioClip{SampleRate: 1000, Samples: make([]float64, 5000)}
	s := sliceAudio(clip, 1000, 3000)
	if len(s.Samples) != 2000 {
		t.Errorf("slice length = %d, want 2000", len(s.Samples))
	}
	s = sliceAudio(clip, 4000, 99999)
	if len(s.Samples) != 1000 {
		t.Errorf("clamped slice length = %d, want 1000", len(s.Samples))
	}
	s = sliceAudio(clip, 9000, 9999)
	if len(s.Samples) != 0 {
		t.Errorf("out-of-range slice length = %d, want 0", len(s.Samples))
	}
}

func TestSynthesizeRawDeterministic(t *testing.T) {
	a := SynthesizeRaw(5, "a", []videomodel.Event{videomodel.EventGoal}, 2000)
	b := SynthesizeRaw(5, "a", []videomodel.Event{videomodel.EventGoal}, 2000)
	if len(a.Frames) != len(b.Frames) || len(a.Audio.Samples) != len(b.Audio.Samples) {
		t.Fatal("raw synthesis not deterministic in shape")
	}
	for i := range a.Audio.Samples {
		if a.Audio.Samples[i] != b.Audio.Samples[i] {
			t.Fatal("raw synthesis audio differs")
		}
	}
}
