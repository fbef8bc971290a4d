// Package ingest turns raw video material into archive entries: the
// online counterpart of the paper's Figure-1 pipeline. Given a continuous
// frame stream and audio track, the pipeline
//
//  1. segments the stream into shots (shot boundary detection),
//  2. extracts the 20 Table-1 features of every shot,
//  3. annotates event shots with a trained decision-tree classifier
//     (the Section-2 observation that "the computer may perform automatic
//     annotation with limited semantic interpretation").
//
// This is the "accumulate" axis of the paper's MMDBMS framing. A segmented
// video never changes an existing model: package live serves it from a
// delta sub-model and later folds it in with a full hmmm.Build over the
// union corpus (live.Union), exactly as an offline build would.
package ingest

import (
	"errors"
	"fmt"

	"github.com/videodb/hmmm/internal/features"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/synthaudio"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// RawVideo is un-segmented source material: a continuous frame stream and
// its audio track.
type RawVideo struct {
	Name          string
	Frames        []*videomodel.Frame
	FramePeriodMS int // milliseconds between consecutive frames
	Audio         *videomodel.AudioClip
}

// Pipeline segments and annotates raw videos. Construct with NewPipeline.
type Pipeline struct {
	detector   *shotdetect.Detector
	classifier *mining.Tree
	// MinConfidence is the classifier probability a shot must reach to be
	// annotated with an event; below it the shot stays unannotated.
	MinConfidence float64
}

// NewPipeline builds a pipeline from a shot detector configuration and a
// trained event classifier (labels: 0 = no event, otherwise the
// videomodel.Event value).
func NewPipeline(cfg shotdetect.Config, classifier *mining.Tree, minConfidence float64) (*Pipeline, error) {
	if classifier == nil {
		return nil, errors.New("ingest: nil classifier")
	}
	if classifier.NumFeatures() != features.K {
		return nil, fmt.Errorf("ingest: classifier expects %d features, extractor produces %d",
			classifier.NumFeatures(), features.K)
	}
	det, err := shotdetect.New(cfg)
	if err != nil {
		return nil, err
	}
	if minConfidence < 0 || minConfidence >= 1 {
		return nil, fmt.Errorf("ingest: min confidence %v outside [0, 1)", minConfidence)
	}
	return &Pipeline{detector: det, classifier: classifier, MinConfidence: minConfidence}, nil
}

// Result is the outcome of segmenting and annotating one raw video.
type Result struct {
	Video    *videomodel.Video
	Features map[videomodel.ShotID][]float64 // per annotated shot
	// AutoAnnotated counts shots the classifier labeled with an event.
	AutoAnnotated int
}

// Segment runs stages 1-3 on a raw video: boundary detection, per-shot
// feature extraction, and classifier annotation. Shot IDs start at
// firstShotID; the caller chooses them to avoid collisions with the
// archive.
func (p *Pipeline) Segment(raw *RawVideo, id videomodel.VideoID, firstShotID videomodel.ShotID) (*Result, error) {
	if raw == nil || len(raw.Frames) < 2 {
		return nil, errors.New("ingest: raw video needs at least 2 frames")
	}
	if raw.Audio == nil || raw.Audio.SampleRate <= 0 {
		return nil, errors.New("ingest: raw video has no audio")
	}
	if raw.FramePeriodMS <= 0 {
		return nil, errors.New("ingest: non-positive frame period")
	}

	// Boundary detection is serial (each boundary depends on the running
	// frame history), and so is the prefix sum fixing every shot's frame
	// window. The per-shot work — feature extraction and classification,
	// where the time goes — then fans out over disjoint slots, so the
	// result is bit-identical for every GOMAXPROCS.
	segments := p.detector.Segment(raw.Frames)
	n := len(segments)
	firstFrame := make([]int, n+1)
	for si, segFrames := range segments {
		firstFrame[si+1] = firstFrame[si] + len(segFrames)
	}
	shots := make([]*videomodel.Shot, n)
	shotFeats := make([][]float64, n)
	par.For(n, func(si int) {
		startMS := firstFrame[si] * raw.FramePeriodMS
		endMS := firstFrame[si+1] * raw.FramePeriodMS
		shot := &videomodel.Shot{
			ID:      firstShotID + videomodel.ShotID(si),
			Video:   id,
			Index:   si,
			StartMS: startMS,
			EndMS:   endMS,
			Frames:  segments[si],
			Audio:   sliceAudio(raw.Audio, startMS, endMS),
		}
		// A degenerate segment (single frame or no audio window) fails
		// extraction: keep the shot unannotated rather than failing the
		// whole video.
		if f, err := features.Extract(shot); err == nil {
			label, probs := p.classifier.PredictProb(f)
			if label != 0 && probs[label] >= p.MinConfidence {
				ev := videomodel.Event(label)
				if ev.Valid() {
					shot.Events = []videomodel.Event{ev}
					shotFeats[si] = f
				}
			}
		}
		shot.Frames, shot.Audio = nil, nil
		shots[si] = shot
	})

	v := &videomodel.Video{ID: id, Name: raw.Name, Shots: shots}
	feats := make(map[videomodel.ShotID][]float64)
	auto := 0
	for si, shot := range shots {
		if f := shotFeats[si]; f != nil {
			feats[shot.ID] = f
			auto++
		}
	}
	return &Result{Video: v, Features: feats, AutoAnnotated: auto}, nil
}

// sliceAudio cuts the [startMS, endMS) window out of a clip. The returned
// clip aliases the source samples.
func sliceAudio(clip *videomodel.AudioClip, startMS, endMS int) *videomodel.AudioClip {
	lo := startMS * clip.SampleRate / 1000
	hi := endMS * clip.SampleRate / 1000
	if lo < 0 {
		lo = 0
	}
	if hi > len(clip.Samples) {
		hi = len(clip.Samples)
	}
	if lo > hi {
		lo = hi
	}
	return &videomodel.AudioClip{SampleRate: clip.SampleRate, Samples: clip.Samples[lo:hi]}
}

// LabeledSamples renders samplesPerClass shots of every event class plus
// ordinary play and extracts their features through the real pipeline:
// labeled training or evaluation data for the event classifier. Labels are
// 0 for no event, otherwise the videomodel.Event value.
func LabeledSamples(seed uint64, samplesPerClass int) ([]mining.Sample, error) {
	if samplesPerClass < 2 {
		return nil, fmt.Errorf("ingest: %d samples per class, want >= 2", samplesPerClass)
	}
	rng := xrand.New(seed)
	renderer := synthvideo.NewRenderer(0, 0, 0)
	classes := append([]videomodel.Event{videomodel.EventNone}, videomodel.AllEvents()...)
	var samples []mining.Sample
	for _, class := range classes {
		for i := 0; i < samplesPerClass; i++ {
			shotRng := rng.Fork(uint64(int(class)*10000 + i))
			shot := &videomodel.Shot{
				Frames: renderer.RenderShot(shotRng.Fork(1), class, 3000),
				Audio:  synthaudio.Synthesize(shotRng.Fork(2), class, 3000),
			}
			f, err := features.Extract(shot)
			if err != nil {
				return nil, fmt.Errorf("ingest: sample for %v: %w", class, err)
			}
			samples = append(samples, mining.Sample{Features: f, Label: int(class)})
		}
	}
	return samples, nil
}

// TrainClassifier trains the event decision tree on synthesized labeled
// shots. This mirrors the paper's refs [6][7], which train classifiers on
// labeled training videos.
func TrainClassifier(seed uint64, samplesPerClass int, cfg mining.Config) (*mining.Tree, error) {
	samples, err := LabeledSamples(seed, samplesPerClass)
	if err != nil {
		return nil, err
	}
	return mining.Train(samples, cfg)
}

// SynthesizeRaw renders a continuous raw video from a shot class timeline:
// the test and demo source for the ingestion pipeline (standing in for a
// camera feed or file decoder).
func SynthesizeRaw(seed uint64, name string, classes []videomodel.Event, shotMS int) *RawVideo {
	rng := xrand.New(seed)
	renderer := synthvideo.NewRenderer(0, 0, 0)
	raw := &RawVideo{Name: name, FramePeriodMS: synthvideo.DefaultFramePeriod}
	var audio []float64
	for i, class := range classes {
		shotRng := rng.Fork(uint64(i))
		raw.Frames = append(raw.Frames, renderer.RenderShot(shotRng.Fork(1), class, shotMS)...)
		clip := synthaudio.Synthesize(shotRng.Fork(2), class, shotMS)
		audio = append(audio, clip.Samples...)
	}
	raw.Audio = &videomodel.AudioClip{SampleRate: synthaudio.SampleRate, Samples: audio}
	return raw
}
