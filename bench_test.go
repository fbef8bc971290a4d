package hmmm

// Benchmarks regenerating the performance-bearing side of every paper
// artifact (DESIGN.md §4). Each BenchmarkT1/F*/X* target corresponds to
// one table or figure; `go test -bench=. -benchmem` runs the full sweep
// and cmd/hmmm-experiments prints the accompanying report tables.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/videodb/hmmm/internal/cluster"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/features"
	"github.com/videodb/hmmm/internal/feedback"
	core "github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/synthaudio"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// paperSuite lazily builds the paper-scale corpus + model once for all
// benchmarks.
var paperSuite struct {
	once   sync.Once
	corpus *dataset.Corpus
	model  *core.Model
	err    error
}

func paperModel(b *testing.B) (*dataset.Corpus, *core.Model) {
	b.Helper()
	paperSuite.once.Do(func() {
		paperSuite.corpus, paperSuite.err = dataset.Build(dataset.PaperScale(2006))
		if paperSuite.err != nil {
			return
		}
		paperSuite.model, paperSuite.err = core.Build(
			paperSuite.corpus.Archive, paperSuite.corpus.Features, core.BuildOptions{LearnP12: true})
	})
	if paperSuite.err != nil {
		b.Fatal(paperSuite.err)
	}
	return paperSuite.corpus, paperSuite.model
}

// BenchmarkT1FeatureExtraction measures extracting the 20 Table-1 features
// from one rendered shot (5 visual over the frames + 15 audio over the
// waveform).
func BenchmarkT1FeatureExtraction(b *testing.B) {
	rng := xrand.New(1)
	r := synthvideo.NewRenderer(0, 0, 0)
	shot := &videomodel.Shot{ID: 1, EndMS: 3000}
	shot.Frames = r.RenderShot(rng.Fork(1), videomodel.EventGoal, 3000)
	shot.Audio = synthaudio.Synthesize(rng.Fork(2), videomodel.EventGoal, 3000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := features.Extract(shot); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1PipelineSmall measures the full Figure-1 pipeline (synthesis,
// extraction, model build) on a small corpus.
func BenchmarkF1PipelineSmall(b *testing.B) {
	cfg := dataset.Config{Seed: 3, Videos: 4, Shots: 120, Annotated: 24, Fast: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpus, err := dataset.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Build(corpus.Archive, corpus.Features, core.BuildOptions{LearnP12: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2RetrievalGreedy measures the Figure-2 retrieval process
// (greedy traversal) for the goal -> free_kick query at paper scale.
func BenchmarkF2RetrievalGreedy(b *testing.B) {
	_, m := paperModel(b)
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, Beam: 1, TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	q := retrieval.NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Retrieve(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2RetrievalBruteForce is the exhaustive baseline for the same
// query, quantifying the paper's "lower computational costs" claim.
func BenchmarkF2RetrievalBruteForce(b *testing.B) {
	_, m := paperModel(b)
	q := retrieval.NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := retrieval.BruteForce(m, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3LatticeByPatternLength measures the Figure-3 lattice
// traversal as the pattern grows from C = 1 to C = 6 (cross-video hops
// enabled).
func BenchmarkF3LatticeByPatternLength(b *testing.B) {
	_, m := paperModel(b)
	chain := []videomodel.Event{
		videomodel.EventFoul, videomodel.EventFreeKick, videomodel.EventGoal,
		videomodel.EventGoalKick, videomodel.EventCornerKick, videomodel.EventGoal,
	}
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, Beam: 4, CrossVideo: true, TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	for c := 1; c <= len(chain); c++ {
		q := retrieval.NewQuery(chain[:c]...)
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Retrieve(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF4MATNQuery measures compiling and executing the paper's
// Section-3 MATN pattern (Figure 4).
func BenchmarkF4MATNQuery(b *testing.B) {
	_, m := paperModel(b)
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, Beam: 4, CrossVideo: true, TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	const src = "free_kick & goal -> corner_kick -> player_change -> goal"
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		queries, err := matn.CompileString(src)
		if err != nil {
			b.Fatal(err)
		}
		var all []retrieval.Match
		for _, q := range queries {
			res, err := eng.Retrieve(q)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, res.Matches...)
		}
		retrieval.MergeRanked(all, 5)
	}
}

// BenchmarkF5PaperQuery measures the Figure-5 headline query end to end on
// the paper-scale archive.
func BenchmarkF5PaperQuery(b *testing.B) {
	_, m := paperModel(b)
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, Beam: 4, TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	q := retrieval.NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eng.Retrieve(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Matches) == 0 {
			b.Fatal("no matches at paper scale")
		}
	}
}

// BenchmarkX1Scaling measures greedy retrieval latency across corpus
// scales (the X1 experiment's cost axis).
func BenchmarkX1Scaling(b *testing.B) {
	for _, sc := range []struct {
		name   string
		factor float64
	}{{"quarter", 0.25}, {"half", 0.5}, {"full", 1}} {
		cfg := dataset.Config{
			Seed:      7,
			Videos:    int(54 * sc.factor),
			Shots:     int(11567 * sc.factor),
			Annotated: int(506 * sc.factor),
			Fast:      true,
		}
		corpus, err := dataset.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.Build(corpus.Archive, corpus.Features, core.BuildOptions{LearnP12: true})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, Beam: 4, TopK: 10, StopAfterMatches: true})
		if err != nil {
			b.Fatal(err)
		}
		q := retrieval.NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Retrieve(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX2FeedbackRetrain measures one offline retraining pass
// (Eqs. 1-6) from a populated feedback log at paper scale.
func BenchmarkX2FeedbackRetrain(b *testing.B) {
	_, m := paperModel(b)
	log := feedback.NewLog()
	rng := xrand.New(9)
	for i := 0; i < 50; i++ {
		s := rng.Intn(m.NumStates() - 1)
		if err := log.MarkPositive(m, []int{s, s + 1}); err != nil {
			b.Fatal(err)
		}
	}
	trainer := feedback.NewTrainer(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.Retrain(m, log); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX3BeamWidth measures the beam-width ablation: traversal cost of
// the paper's greedy walk (beam 1) versus wider beams.
func BenchmarkX3BeamWidth(b *testing.B) {
	_, m := paperModel(b)
	q := retrieval.NewQuery(videomodel.EventFoul, videomodel.EventFreeKick, videomodel.EventGoal)
	for _, beam := range []int{1, 4, 16} {
		eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, Beam: beam, CrossVideo: true, TopK: 10})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("beam=%d", beam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Retrieve(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelBuild measures constructing the full two-level HMMM
// (A1 blocks, B1 normalization, B2, P1,2 learning, B1') at paper scale.
func BenchmarkModelBuild(b *testing.B) {
	corpus, _ := paperModel(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(corpus.Archive, corpus.Features, core.BuildOptions{LearnP12: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPaperScale measures the parallel offline model build
// (per-video A1/B1/B2 fill, P1,2 learning, B1') at paper scale with the
// worker count (GOMAXPROCS) set to 1, 2, 4 and left as is. Output is
// bit-identical for every count, so the sweep is a pure wall-clock
// comparison; interpret it against the host's CPU count (on a
// single-core budget all counts degenerate to serial).
func BenchmarkBuildPaperScale(b *testing.B) {
	corpus, _ := paperModel(b)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			if workers > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(corpus.Archive, corpus.Features,
					core.BuildOptions{LearnP12: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRetrainPaperScale measures one full copy-on-write retrain
// cycle as the server performs it: clone the model, train the clone on
// the feedback log, and rebuild the retrieval engine (with its derived
// caches) over it — the work that now happens off the query path.
func BenchmarkRetrainPaperScale(b *testing.B) {
	_, m := paperModel(b)
	log := feedback.NewLog()
	rng := xrand.New(11)
	for i := 0; i < 50; i++ {
		s := rng.Intn(m.NumStates() - 1)
		if err := log.MarkPositive(m, []int{s, s + 1}); err != nil {
			b.Fatal(err)
		}
	}
	trainer := feedback.NewTrainer(1)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("buildworkers=%d", workers)
		if workers == 0 {
			name = "buildworkers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			if workers > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next, err := trainer.Retrain(m, log)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := retrieval.NewEngine(next, retrieval.Options{AnnotatedOnly: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimCache contrasts the engine's similarity table: cold is the
// one-time NewEngine cache build over every (state, concept) pair at
// paper scale, warm is a full sweep of cached lookups over the same
// pairs. Their ratio is the per-query saving the cache buys once the
// engine is reused.
func BenchmarkSimCache(b *testing.B) {
	_, m := paperModel(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("cold-build/workers=%d", workers), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm-lookup-sweep", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			for s := 0; s < m.NumStates(); s++ {
				for ci := 0; ci < m.NumConcepts(); ci++ {
					sink += eng.Sim(s, videomodel.EventFromIndex(ci))
				}
			}
		}
		_ = sink
	})
}

// BenchmarkShardedRetrieval measures the scatter-gather serving path
// against the single engine for the headline query at paper scale. The
// merged ranking is bit-identical for every K (pinned by the
// differential suite in internal/shard), so the sweep isolates pure
// sharding overhead: K=1 versus unsharded is the acceptance budget
// (<=10%), and K>1 shows the fan-out cost — parallel wins need cores,
// which the recorded GOMAXPROCS qualifies.
func BenchmarkShardedRetrieval(b *testing.B) {
	_, m := paperModel(b)
	opts := retrieval.Options{AnnotatedOnly: true, Beam: 4, TopK: 10}
	q := retrieval.NewQuery(videomodel.EventGoal, videomodel.EventFreeKick)
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unsharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Retrieve(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{1, 2, 4} {
		g, err := shard.NewGroup(m, k, opts, shard.GroupOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Retrieve(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngest measures growing a small archive by one ~40s raw video
// with the calls compaction makes: segmentation (extraction,
// classification), the union corpus, and a full model build over it.
func BenchmarkIngest(b *testing.B) {
	corpus, err := dataset.Build(dataset.Config{Seed: 21, Videos: 4, Shots: 120, Annotated: 24, Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := ingest.TrainClassifier(1, 8, mining.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := ingest.NewPipeline(shotdetect.DefaultConfig(), tree, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	classes := []videomodel.Event{
		videomodel.EventGoal, videomodel.EventGoalKick, videomodel.EventGoal,
		videomodel.EventYellowCard, videomodel.EventPlayerChange,
	}
	var maxVideo videomodel.VideoID
	var maxShot videomodel.ShotID
	for _, v := range corpus.Archive.Videos {
		maxVideo = max(maxVideo, v.ID)
		for _, s := range v.Shots {
			maxShot = max(maxShot, s.ID)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := ingest.SynthesizeRaw(uint64(i), "bench", classes, 4000)
		res, err := pipe.Segment(raw, maxVideo+1, maxShot+1)
		if err != nil {
			b.Fatal(err)
		}
		union, feats, err := live.Union(corpus.Archive, corpus.Features, []live.Record{live.NewRecord(res, 0)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Build(union, feats, core.BuildOptions{LearnP12: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX5ClusterVideos measures clustering the paper-scale archive's
// videos by event profile.
func BenchmarkX5ClusterVideos(b *testing.B) {
	_, m := paperModel(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Videos(m, 3, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
