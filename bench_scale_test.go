package hmmm

// BenchmarkMillionShot records the coarse→fine latency/memory curve the
// two-stage retrieval work targets (DESIGN.md §5f): exact-only vs
// prefiltered query latency and dense vs compact resident model bytes,
// at 1x (the paper's 11,567 shots), 10x, and 100x (~1.16M shots)
// archive scale. `make bench-million` captures the full curve into
// BENCH_retrieval.json; -short keeps only the 1x point (the CI smoke).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	core "github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
)

// scalePoint is one point on the curve: the archive scale factor and the
// per-step coarse candidate budget used at that scale (a k-step query
// keeps up to k×limit videos; wider archives keep more absolute
// candidates but a smaller fraction).
type scalePoint struct {
	factor int
	limit  int
}

var scalePoints = []scalePoint{{1, 12}, {10, 12}, {100, 16}}

// scaleSuite lazily builds one model per scale factor, shared by every
// sub-benchmark so `go test -bench BenchmarkMillionShot` pays each
// build once.
var scaleSuite struct {
	mu     sync.Mutex
	models map[int]*core.Model
	shots  map[int]int
}

func scaleModel(b *testing.B, factor int) (*core.Model, int) {
	b.Helper()
	scaleSuite.mu.Lock()
	defer scaleSuite.mu.Unlock()
	if scaleSuite.models == nil {
		scaleSuite.models = make(map[int]*core.Model)
		scaleSuite.shots = make(map[int]int)
	}
	if m, ok := scaleSuite.models[factor]; ok {
		return m, scaleSuite.shots[factor]
	}
	cfg := synthvideo.ScaledArchive(2006, factor)
	archive, feats, err := synthvideo.GenerateArchive(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(archive, feats, core.BuildOptions{LearnP12: true})
	if err != nil {
		b.Fatal(err)
	}
	scaleSuite.models[factor] = m
	scaleSuite.shots[factor] = cfg.Shots
	return m, cfg.Shots
}

// scaleQueries is the fixed query mix each latency sub-benchmark cycles
// through: a single-event probe, a two-step temporal pattern, and a
// three-step pattern — the shapes the paper's Figure 5 walkthrough uses.
func scaleQueries() []retrieval.Query {
	return []retrieval.Query{
		retrieval.NewQuery(videomodel.EventGoal),
		retrieval.NewQuery(videomodel.EventCornerKick, videomodel.EventGoal),
		retrieval.NewQuery(videomodel.EventFreeKick, videomodel.EventFoul, videomodel.EventGoal),
	}
}

func BenchmarkMillionShot(b *testing.B) {
	for _, pt := range scalePoints {
		if testing.Short() && pt.factor > 1 {
			continue
		}
		m, shots := scaleModel(b, pt.factor)
		base := retrieval.Options{TopK: 10, Beam: 4, AnnotatedOnly: true}
		queries := scaleQueries()

		b.Run(fmt.Sprintf("scale=%dx/exact", pt.factor), func(b *testing.B) {
			eng, err := retrieval.NewEngine(m, base)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Retrieve(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})

		// The Step-2 order memo on either side of the exact point above
		// (which, cycling three first steps on one engine, runs on hits):
		// a fresh engine per iteration walks Π2/A2 every time — its cache
		// builds happen off the clock — while a warmed one never does.
		b.Run(fmt.Sprintf("scale=%dx/order=miss", pt.factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := retrieval.NewEngine(m, base)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := eng.Retrieve(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("scale=%dx/order=hit", pt.factor), func(b *testing.B) {
			eng, err := retrieval.NewEngine(m, base)
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range queries {
				if _, err := eng.Retrieve(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Retrieve(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("scale=%dx/coarse=%d", pt.factor, pt.limit), func(b *testing.B) {
			opts := base
			opts.CoarseCandidates = pt.limit
			eng, err := retrieval.NewEngine(m, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Retrieve(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})

		// The layout point: resident bytes per archive shot for the dense
		// float64 snapshot vs the compact layout, as custom metrics so the
		// curve lands in BENCH_retrieval.json alongside the latencies.
		b.Run(fmt.Sprintf("scale=%dx/layout", pt.factor), func(b *testing.B) {
			var dense, compact int
			for i := 0; i < b.N; i++ {
				dense = m.Snapshot().MemoryBytes()
				compact = m.CompactSnapshot().MemoryBytes()
			}
			b.ReportMetric(float64(dense)/float64(shots), "dense-B/shot")
			b.ReportMetric(float64(compact)/float64(shots), "compact-B/shot")
			b.ReportMetric(float64(dense)/float64(compact), "compression-x")
		})
	}
}

// BenchmarkShardedRetrieval measures in-process scatter-gather over K
// by-video shards against one engine, on BenchmarkMillionShot's
// archives and query mix. The merged ranking is bit-identical for every
// K (pinned by the differential suite in internal/shard), so the sweep
// isolates what the split costs: videos/op is the summed
// Cost.VideosSeen, which grows with K because every shard orders and
// prunes its own videos against its own top-K. -short keeps only the 1x
// point (`make bench-scale`); `make bench-million` records the curve.
func BenchmarkShardedRetrieval(b *testing.B) {
	ctx := context.Background()
	for _, pt := range scalePoints {
		if testing.Short() && pt.factor > 1 {
			continue
		}
		m, _ := scaleModel(b, pt.factor)
		opts := retrieval.Options{TopK: 10, Beam: 4, AnnotatedOnly: true}
		queries := scaleQueries()
		run := func(name string, r retrieval.Retriever) {
			b.Run(fmt.Sprintf("scale=%dx/%s", pt.factor, name), func(b *testing.B) {
				// Warm every engine's order memo, as serving traffic does,
				// so a short run does not time the first query per step.
				for _, q := range queries {
					if _, err := r.RetrieveContext(ctx, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				videos := 0
				for i := 0; i < b.N; i++ {
					res, err := r.RetrieveContext(ctx, queries[i%len(queries)])
					if err != nil {
						b.Fatal(err)
					}
					videos += res.Cost.VideosSeen
				}
				b.ReportMetric(float64(videos)/float64(b.N), "videos/op")
			})
		}
		eng, err := retrieval.NewEngine(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		run("unsharded", eng)
		for _, k := range []int{1, 2, 4} {
			g, err := shard.NewGroup(m, k, opts, shard.GroupOptions{})
			if err != nil {
				b.Fatal(err)
			}
			run(fmt.Sprintf("K=%d", k), g)
		}
	}
}
