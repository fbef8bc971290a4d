// Package dataset builds synthetic soccer-video corpora at the paper's
// evaluation scale: 54 videos segmented into 11,567 shots of which 506 are
// annotated as semantic events (Section 5).
//
// A corpus is generated in three stages, all deterministic in the seed:
//
//  1. an event grammar produces each video's shot timeline — mostly plain
//     play shots, with event episodes following soccer-plausible chains
//     (a foul tends to be followed by a free kick or a card, free kicks
//     and corners sometimes produce goals, goals are followed by player
//     changes, and a single shot may carry several annotations such as
//     the paper's "free kick + goal" example);
//  2. synthvideo/synthaudio render the raster frames and audio waveform
//     of every shot;
//  3. features.Extract computes the 20 Table-1 features, after which the
//     raw media is dropped (KeepMedia retains it).
//
// Rendering fans out over internal/par; per-shot RNG streams are forked
// from the shot identity and every shot writes its own slots, so the
// corpus is identical regardless of GOMAXPROCS or scheduling.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/videodb/hmmm/internal/features"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/synthaudio"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// Config parameterizes corpus generation. PaperScale returns the exact
// Section-5 configuration.
type Config struct {
	Seed      uint64
	Videos    int // number of videos
	Shots     int // total shots across all videos
	Annotated int // total annotated (event) shots across all videos

	// Media fidelity. Fast mode renders smaller rasters and shorter
	// audio; the extraction pipeline is identical, only cheaper. The
	// experiments that reproduce paper numbers use Fast at full corpus
	// scale; tests use Fast at small scale.
	Fast bool

	// KeepMedia retains the rendered frames and audio on each shot
	// (memory-hungry at paper scale; meant for small corpora and the
	// pipeline demo).
	KeepMedia bool
}

// PaperScale returns the paper's corpus dimensions: 54 videos, 11,567
// shots, 506 annotated events.
func PaperScale(seed uint64) Config {
	return Config{Seed: seed, Videos: 54, Shots: 11567, Annotated: 506, Fast: true}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Videos <= 0 {
		return fmt.Errorf("dataset: %d videos", c.Videos)
	}
	if c.Shots < c.Videos {
		return fmt.Errorf("dataset: %d shots for %d videos", c.Shots, c.Videos)
	}
	if c.Annotated < 0 || c.Annotated > c.Shots {
		return fmt.Errorf("dataset: %d annotated of %d shots", c.Annotated, c.Shots)
	}
	// Every video needs at least one annotated shot to host a non-empty
	// local MMM when annotations exist at all.
	if c.Annotated > 0 && c.Annotated < c.Videos {
		return fmt.Errorf("dataset: %d annotated shots cannot cover %d videos", c.Annotated, c.Videos)
	}
	return nil
}

// Corpus is a generated dataset: the archive plus the extracted Table-1
// feature vector of every annotated shot (the level-1 MMM inputs).
type Corpus struct {
	Archive  *videomodel.Archive
	Features map[videomodel.ShotID][]float64
	Config   Config
}

// Build generates a corpus.
func Build(cfg Config) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	specs := planVideos(root.Fork(1), cfg)

	videos, feats, err := render(root.Fork(2), cfg, specs)
	if err != nil {
		return nil, err
	}
	archive, err := videomodel.NewArchive(videos)
	if err != nil {
		return nil, fmt.Errorf("dataset: assembling archive: %w", err)
	}
	return &Corpus{Archive: archive, Features: feats, Config: cfg}, nil
}

// shotSpec is a planned shot before rendering.
type shotSpec struct {
	durationMS int
	events     []videomodel.Event
}

// videoSpec is a planned video.
type videoSpec struct {
	shots []shotSpec
	genre string
}

// planVideos distributes shots and annotation budgets across videos and
// runs the event grammar per video, cycling through the genre archetypes.
// Totals are exact: Σ shots == cfg.Shots and Σ annotated == cfg.Annotated.
func planVideos(rng *xrand.RNG, cfg Config) []videoSpec {
	specs := make([]videoSpec, cfg.Videos)
	// Exact distribution of shot and annotation counts.
	shotCounts := splitEvenly(cfg.Shots, cfg.Videos)
	annCounts := splitEvenly(cfg.Annotated, cfg.Videos)
	for v := range specs {
		specs[v] = planVideo(rng.Fork(uint64(v)), shotCounts[v], annCounts[v], genres[v%len(genres)])
		specs[v].genre = genres[v%len(genres)].name
	}
	return specs
}

// splitEvenly splits total into n near-equal non-negative parts.
func splitEvenly(total, n int) []int {
	out := make([]int, n)
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Event grammar tables: start-event weights and chain continuations.
var startWeights = map[videomodel.Event]float64{
	videomodel.EventFoul:         0.24,
	videomodel.EventCornerKick:   0.20,
	videomodel.EventFreeKick:     0.16,
	videomodel.EventGoalKick:     0.16,
	videomodel.EventGoal:         0.08,
	videomodel.EventPlayerChange: 0.10,
	videomodel.EventYellowCard:   0.05,
	videomodel.EventRedCard:      0.01,
}

// Genre archetypes skew the start-event weights per video, giving the
// archive the semantic structure the paper's video-level MMM is meant to
// recover ("cluster the videos describing similar events",
// Section 4.2.2). Multipliers apply to startWeights before sampling.
type genre struct {
	name string
	mult map[videomodel.Event]float64
}

var genres = []genre{
	{name: "balanced", mult: nil},
	{name: "offensive", mult: map[videomodel.Event]float64{
		videomodel.EventGoal: 8, videomodel.EventCornerKick: 4,
		videomodel.EventGoalKick: 2.5, videomodel.EventFreeKick: 0.4,
		videomodel.EventFoul: 0.1, videomodel.EventYellowCard: 0.05,
		videomodel.EventPlayerChange: 0.5,
	}},
	{name: "defensive", mult: map[videomodel.Event]float64{
		videomodel.EventFoul: 4, videomodel.EventYellowCard: 8,
		videomodel.EventRedCard: 8, videomodel.EventFreeKick: 3,
		videomodel.EventGoal: 0.05, videomodel.EventCornerKick: 0.2,
		videomodel.EventGoalKick: 0.5, videomodel.EventPlayerChange: 0.5,
	}},
}

// planVideo builds one video's timeline with exactly nShots shots and
// exactly nAnn annotated shots, with start events drawn from the genre's
// skewed weights.
func planVideo(rng *xrand.RNG, nShots, nAnn int, g genre) videoSpec {
	spec := videoSpec{shots: make([]shotSpec, nShots)}
	for i := range spec.shots {
		spec.shots[i] = shotSpec{durationMS: 2000 + rng.Intn(6000)}
	}
	if nAnn <= 0 || nShots == 0 {
		return spec
	}

	// Choose annotated positions, then fill them with grammar episodes:
	// consecutive annotated positions continue a chain; isolated ones
	// start fresh.
	positions := rng.Perm(nShots)[:nAnn]
	sortInts(positions)
	prevPos := -10
	var prevEvent videomodel.Event
	for _, pos := range positions {
		var events []videomodel.Event
		if pos == prevPos+1 && prevEvent != videomodel.EventNone {
			events = continueChain(rng, prevEvent, g)
		} else {
			events = []videomodel.Event{pickStart(rng, g)}
		}
		// Free kicks sometimes score within the same shot: the paper's
		// double-annotation example.
		if events[0] == videomodel.EventFreeKick && rng.Bool(0.25) {
			events = append(events, videomodel.EventGoal)
		}
		if events[0] == videomodel.EventCornerKick && rng.Bool(0.12) {
			events = append(events, videomodel.EventGoal)
		}
		spec.shots[pos].events = events
		spec.shots[pos].durationMS = 3000 + rng.Intn(7000)
		prevPos, prevEvent = pos, events[len(events)-1]
	}
	return spec
}

func pickStart(rng *xrand.RNG, g genre) videomodel.Event {
	events := videomodel.AllEvents()
	weights := make([]float64, len(events))
	for i, e := range events {
		weights[i] = startWeights[e]
		if m, ok := g.mult[e]; ok {
			weights[i] *= m
		}
	}
	return events[rng.Choice(weights)]
}

// continueChain picks a follow-up event given the previous one, modeling
// soccer temporal structure; unknown contexts start a fresh episode.
func continueChain(rng *xrand.RNG, prev videomodel.Event, g genre) []videomodel.Event {
	switch prev {
	case videomodel.EventFoul:
		switch {
		case rng.Bool(0.5):
			return []videomodel.Event{videomodel.EventFreeKick}
		case rng.Bool(0.4):
			return []videomodel.Event{videomodel.EventYellowCard}
		case rng.Bool(0.2):
			return []videomodel.Event{videomodel.EventRedCard}
		}
	case videomodel.EventFreeKick:
		if rng.Bool(0.3) {
			return []videomodel.Event{videomodel.EventGoal}
		}
	case videomodel.EventCornerKick:
		if rng.Bool(0.25) {
			return []videomodel.Event{videomodel.EventGoal}
		}
	case videomodel.EventGoal:
		if rng.Bool(0.35) {
			return []videomodel.Event{videomodel.EventPlayerChange}
		}
		return []videomodel.Event{videomodel.EventGoalKick}
	case videomodel.EventYellowCard, videomodel.EventRedCard:
		if rng.Bool(0.4) {
			return []videomodel.Event{videomodel.EventFreeKick}
		}
	}
	return []videomodel.Event{pickStart(rng, g)}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// render materializes the planned corpus: media synthesis plus feature
// extraction for annotated shots, fanned out over internal/par.
func render(rng *xrand.RNG, cfg Config, specs []videoSpec) ([]*videomodel.Video, map[videomodel.ShotID][]float64, error) {
	w, h, period := synthvideo.DefaultWidth, synthvideo.DefaultHeight, synthvideo.DefaultFramePeriod
	renderCapMS := 1 << 30
	if cfg.Fast {
		w, h, period = 32, 20, 400
		renderCapMS = 2400 // render a representative prefix of long shots
	}
	renderer := synthvideo.NewRenderer(w, h, period)

	// Assemble shot skeletons first so IDs and times are sequential.
	videos := make([]*videomodel.Video, len(specs))
	type job struct {
		shot *videomodel.Shot
		seed uint64
	}
	var jobs []job
	next := videomodel.ShotID(0)
	for vi, vs := range specs {
		v := &videomodel.Video{
			ID:    videomodel.VideoID(vi + 1),
			Name:  fmt.Sprintf("match-%02d", vi+1),
			Genre: vs.genre,
		}
		t := 0
		for si, ss := range vs.shots {
			s := &videomodel.Shot{
				ID:      next,
				Video:   v.ID,
				Index:   si,
				StartMS: t,
				EndMS:   t + ss.durationMS,
				Events:  ss.events,
			}
			t += ss.durationMS
			v.Shots = append(v.Shots, s)
			// Only annotated shots need features (they are the level-1
			// states); plain shots are rendered only when media is kept.
			if s.Annotated() || cfg.KeepMedia {
				jobs = append(jobs, job{shot: s, seed: rng.Uint64()})
			}
			next++
		}
		videos[vi] = v
	}

	// Each job writes only its own slots, so the render is bit-identical
	// for every GOMAXPROCS; the feature map is filled serially after.
	jobFeats := make([][]float64, len(jobs))
	errs := make([]error, len(jobs))
	par.For(len(jobs), func(i int) {
		s := jobs[i].shot
		class := videomodel.EventNone
		if len(s.Events) > 0 {
			class = s.Events[0]
		}
		dur := min(s.DurationMS(), renderCapMS)
		shotRng := xrand.New(jobs[i].seed)
		s.Frames = renderer.RenderShot(shotRng.Fork(1), class, dur)
		s.Audio = synthaudio.Synthesize(shotRng.Fork(2), class, dur)
		if s.Annotated() {
			f, err := features.Extract(s)
			if err != nil {
				errs[i] = fmt.Errorf("dataset: shot %d: %w", s.ID, err)
				return
			}
			jobFeats[i] = f
		}
		if !cfg.KeepMedia {
			s.Frames = nil
			s.Audio = nil
		}
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, nil, err
	}
	feats := make(map[videomodel.ShotID][]float64, len(jobs))
	for i, j := range jobs {
		if j.shot.Annotated() {
			feats[j.shot.ID] = jobFeats[i]
		}
	}
	return videos, feats, nil
}

// WriteGroundTruthCSV exports the corpus's event annotations as CSV
// (video_id,video_name,genre,shot_id,shot_index,start_ms,end_ms,events),
// one row per annotated shot with events separated by '+'. External
// analysis tooling consumes this alongside the JSON model export.
func (c *Corpus) WriteGroundTruthCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"video_id", "video_name", "genre", "shot_id", "shot_index", "start_ms", "end_ms", "events"}); err != nil {
		return err
	}
	for _, v := range c.Archive.Videos {
		for _, s := range v.Shots {
			if !s.Annotated() {
				continue
			}
			names := make([]string, len(s.Events))
			for i, e := range s.Events {
				names[i] = e.String()
			}
			rec := []string{
				strconv.Itoa(int(v.ID)), v.Name, v.Genre,
				strconv.Itoa(int(s.ID)), strconv.Itoa(s.Index),
				strconv.Itoa(s.StartMS), strconv.Itoa(s.EndMS),
				strings.Join(names, "+"),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
