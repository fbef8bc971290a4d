package synthvideo

import (
	"fmt"
	"math"

	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// This file generates archive-scale corpora without rendering a single
// raster. The renderer above produces frames whose extracted features
// separate the event classes; at the ROADMAP's million-shot scale,
// rendering and feature extraction dominate the wall clock by orders of
// magnitude, while everything the retrieval stack consumes is just the
// (archive, feature-vector) pair. GenerateArchive therefore samples
// feature vectors directly from per-class centroids with Gaussian
// jitter — the same statistical shape the renderer+extractor pipeline
// produces (class-separated clusters in [0, 1]^K) at a tiny fraction of
// the cost, and bit-reproducible from the seed.

// ArchiveConfig sizes a synthetic archive. The zero value is invalid;
// start from PaperArchive or ScaledArchive.
type ArchiveConfig struct {
	Seed      uint64
	Videos    int
	Shots     int // total shots across the archive
	Annotated int // of which annotated with an event
	// Domain selects the event vocabulary and timeline grammar. Nil means
	// the soccer vocabulary under a flat grammar (every Start and Follow
	// weight 1, every Emphasis 1): the paper corpus the scale benchmarks
	// and recall gates run on.
	Domain *videomodel.Domain
}

// featureDim is the length of the per-shot feature vectors (the model's
// K), matching the Table-1 visual + audio feature extractors.
const featureDim = 20

// flatSoccer is the nil-Domain vocabulary: soccer's event names with no
// timeline preference, so only each video's genre boost shapes its
// annotations.
var flatSoccer = func() *videomodel.Domain {
	n := videomodel.Soccer().NumEvents()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	events := make([]videomodel.EventSpec, n)
	follow := make([][]float64, n)
	for i, ev := range videomodel.Soccer().Events {
		events[i] = videomodel.EventSpec{Name: ev.Name, Emphasis: 1}
		follow[i] = ones
	}
	d, err := videomodel.NewDomain("soccer", events, ones, follow)
	if err != nil {
		panic(err)
	}
	return d
}()

// PaperArchive is the paper's corpus shape: 54 videos, 11,567 shots,
// 506 annotated events.
func PaperArchive(seed uint64) ArchiveConfig {
	return ArchiveConfig{Seed: seed, Videos: 54, Shots: 11567, Annotated: 506}
}

// ScaledArchive scales the paper corpus by factor: shots and annotations
// scale linearly, the video count by √factor (longer videos and more of
// them — a 100× archive has 10× the videos at 10× the length, the shape
// a growing broadcast archive actually takes). factor 1 is PaperArchive.
func ScaledArchive(seed uint64, factor int) ArchiveConfig {
	if factor < 1 {
		factor = 1
	}
	base := PaperArchive(seed)
	base.Videos = int(math.Round(float64(base.Videos) * math.Sqrt(float64(factor))))
	base.Shots *= factor
	base.Annotated *= factor
	return base
}

// GenerateArchive builds a synthetic archive and the feature vectors of
// its annotated shots (the only ones hmmm.Build consumes). Shots and
// annotations are spread evenly across videos, annotations at evenly
// spaced positions. A video's first annotation is drawn from the
// domain's Start weights and each later one from Follow[prev], times a
// per-video genre boost (a match with one goal tends to have more). An
// annotated shot's features are its class centroid plus Gaussian jitter
// of σ = 0.06/Emphasis, clamped to [0, 1]. Deterministic given the config.
func GenerateArchive(cfg ArchiveConfig) (*videomodel.Archive, map[videomodel.ShotID][]float64, error) {
	if cfg.Videos <= 0 || cfg.Shots < cfg.Videos {
		return nil, nil, fmt.Errorf("synthvideo: archive needs >= 1 shot per video, got %d shots / %d videos",
			cfg.Shots, cfg.Videos)
	}
	if cfg.Annotated < 1 || cfg.Annotated > cfg.Shots {
		return nil, nil, fmt.Errorf("synthvideo: %d annotated of %d shots", cfg.Annotated, cfg.Shots)
	}
	d := cfg.Domain
	if d == nil {
		d = flatSoccer
	}

	root := xrand.New(cfg.Seed*6364136223846793005 + 1442695040888963407)
	events := d.AllEvents()
	// Per-class feature centroids, away from the [0, 1] boundary so
	// jitter rarely clamps (clamping would distort the class mean B1').
	centroids := make([][]float64, len(events))
	crng := root.Fork(0)
	for c := range centroids {
		centroids[c] = make([]float64, featureDim)
		for f := range centroids[c] {
			centroids[c][f] = crng.Range(0.15, 0.85)
		}
	}

	videos := make([]*videomodel.Video, cfg.Videos)
	feats := make(map[videomodel.ShotID][]float64, cfg.Annotated)
	sid := videomodel.ShotID(0)
	for vi := range videos {
		// Even split with the remainder spread over the leading videos.
		nShots := cfg.Shots / cfg.Videos
		if vi < cfg.Shots%cfg.Videos {
			nShots++
		}
		nAnn := cfg.Annotated / cfg.Videos
		if vi < cfg.Annotated%cfg.Videos {
			nAnn++
		}
		if nAnn > nShots {
			nAnn = nShots
		}

		rng := root.Fork(uint64(vi) + 1)
		// Genre boost: two preferred event classes per video, multiplying
		// whatever the grammar proposes.
		boost := make([]float64, len(events))
		for i := range boost {
			boost[i] = 1
		}
		perm := rng.Perm(len(events))
		boost[perm[0]] = 4
		if len(perm) > 1 {
			boost[perm[1]] = 2.5
		}

		weights := make([]float64, len(events))
		pick := func(base []float64) videomodel.Event {
			total := 0.0
			for i := range weights {
				weights[i] = float64(base[i] * boost[i])
				total += weights[i]
			}
			if total == 0 {
				// An all-zero Follow row falls back to the Start weights.
				for i := range weights {
					weights[i] = d.Start[i] * boost[i]
				}
			}
			return events[rng.Choice(weights)]
		}

		v := &videomodel.Video{ID: videomodel.VideoID(vi + 1)}
		annEvery := 0
		if nAnn > 0 {
			annEvery = nShots / nAnn
		}
		t := 0
		annotated := 0
		prev := videomodel.EventNone
		for i := 0; i < nShots; i++ {
			dur := 2000 + rng.Intn(6000)
			s := &videomodel.Shot{
				ID: sid, Video: v.ID, Index: i,
				StartMS: t, EndMS: t + dur,
			}
			sid++
			t += dur
			if annEvery > 0 && i%annEvery == 0 && annotated < nAnn {
				var e videomodel.Event
				if prev == videomodel.EventNone {
					e = pick(d.Start)
				} else {
					e = pick(d.Follow[prev.Index()])
				}
				prev = e
				s.Events = append(s.Events, e)
				if rng.Bool(0.2) {
					alt := pick(d.Follow[e.Index()])
					if alt != e {
						s.Events = append(s.Events, alt)
					}
				}
				annotated++
				f := make([]float64, featureDim)
				c := centroids[e.Index()]
				sigma := 0.06 / d.Spec(e).Emphasis
				for fi := range f {
					f[fi] = clamp01(c[fi] + rng.Norm(0, sigma))
				}
				feats[s.ID] = f
			}
			v.Shots = append(v.Shots, s)
		}
		videos[vi] = v
	}
	a, err := videomodel.NewArchive(videos)
	if err != nil {
		return nil, nil, fmt.Errorf("synthvideo: %w", err)
	}
	return a, feats, nil
}
