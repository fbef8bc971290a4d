// Command hmmmload is an open-loop load generator for the HMMM query
// API: it offers queries at a fixed rate regardless of how fast the
// server answers (so a saturated server accumulates queue pressure
// instead of silently slowing the generator down, which is how real
// traffic behaves) and reports the achieved throughput, the latency
// distribution, the shed rate, and the coalesce hit rate.
//
// The workload mixes three traffic classes, tunable by ratio:
//
//   - repeated cheap queries drawn from a small pattern pool — the
//     coalescing substrate (identical in-flight queries share one
//     execution);
//   - unique cheap queries (per-request time scopes) that can never
//     coalesce;
//   - heavy similarity queries that classify into the server's heavy
//     admission lane.
//
// Usage:
//
//	hmmmload [flags]
//
//	-addr          target server base URL (e.g. http://localhost:8077);
//	               empty runs an in-process server over a generated corpus
//	-qps           offered load in queries/second (default 1600)
//	-duration      how long to offer load (default 5s)
//	-repeat        fraction of cheap traffic drawn from the repeated pool
//	               (default 0.5)
//	-heavy         fraction of all traffic that is heavy (default 0.3)
//	-heavy-beam    beam width sent with heavy queries (default 128)
//	-timeout-ms    per-query deadline sent with each request (default 2000)
//	-burst         requests per arrival burst (default 64; 1 = smooth)
//	-seed          workload RNG seed (default 1)
//	-compare       in-process only: run the identical workload twice —
//	               coalescing+lanes off, then on — and emit both results
//	-bench         emit `go test -bench`-style result lines on stdout for
//	               cmd/benchjson (human summary always goes to stderr)
//
// In-process server knobs (ignored with -addr):
//
//	-videos, -shots, -annotated, -corpus-seed   generated corpus size
//	-max-inflight   admission ceiling (default 8; small enough to
//	                saturate a laptop CPU at the default -qps)
//	-coalesce       enable request coalescing + two-lane admission
//	                (default true; -compare overrides)
//	-fast-lane-cost lane threshold; 0 picks one automatically between
//	                the workload's cheap and heavy cost estimates
//
// CI assertions (exit status 3 when violated):
//
//	-assert-coalesce   require at least one coalesce hit
//	-assert-no-errors  require zero transport errors and zero 5xx other
//	                   than admission 503s (ingest mode: also zero
//	                   freshness misses and zero failed compactions)
//
// Distributed-serving scenario (in-process only):
//
//	-coord N        serve the workload through a coordinator over N real
//	                TCP shard servers (internal/rpc) instead of a single
//	                engine; goodput and the degraded-query rate are
//	                reported and emitted on the -bench line
//	-coord-fault    kill one shard a third of the way into the run and
//	                restart it at two thirds (default true with -coord):
//	                queries through the fault window return committed
//	                partials (200 + cost.degraded_shards), never errors
//	-assert-degraded   require at least one degraded query (proves the
//	                   fault window actually hit traffic)
//
// Live-ingest scenario (in-process only, DESIGN.md §5i):
//
//	-ingest-rate R  offer R videos/second to POST /api/ingest for
//	                -duration while a background prober queries the
//	                server continuously. Reports accept latency (ack =
//	                journaled + queryable), freshness lag (submit to
//	                first scoped-query hit), the prober's latency during
//	                the run (compaction pauses would surface as its max),
//	                and the compaction count
//	-ingest-compact-after N  fold the delta every N accepted videos
//	                         (default 4, so a few-second run compacts
//	                         several times)
//
// Federated scenario (in-process only, DESIGN.md §5j):
//
//	-federated a,b,c  boot one generated model per listed domain and
//	                  drive POST /api/query/federated with per-domain
//	                  patterns for -duration, reporting the merged-query
//	                  latency distribution and per-member skip counts
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/boot"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/server"
	"github.com/videodb/hmmm/internal/videomodel"
)

// cheapPool is the repeated-query substrate: a handful of patterns so
// concurrent arrivals collide on the same coalesce key. heavyPool uses
// similarity search (every state is a candidate), which estimates
// orders of magnitude more lattice work and lands in the heavy lane.
var (
	cheapPool = []string{"goal", "free_kick", "goal -> free_kick", "corner_kick"}
	heavyPool = []string{"foul -> foul -> foul", "foul -> goal -> free_kick"}
)

type opts struct {
	addr      string
	qps       float64
	duration  time.Duration
	repeat    float64
	heavy     float64
	timeoutMS int
	burst     int
	seed      int64
	compare   bool
	bench     bool

	videos, shots, annotated int
	corpusSeed               uint64
	heavyBeam                int
	maxInflight              int
	coalesce                 bool
	fastLaneCost             int

	coord      int
	coordFault bool

	ingestRate         float64
	ingestCompactAfter int

	federated string

	assertCoalesce bool
	assertNoErrors bool
	assertDegraded bool
}

// archive is the in-process archive the corpus flags name, in domain.
func (o opts) archive(domain string) boot.Archive {
	return boot.Archive{Seed: o.corpusSeed, Videos: o.videos, Shots: o.shots, Annotated: o.annotated, Domain: domain}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmmmload: ")

	var o opts
	flag.StringVar(&o.addr, "addr", "", "target server base URL (empty = in-process server)")
	flag.Float64Var(&o.qps, "qps", 1600, "offered load in queries/second")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "load duration")
	flag.Float64Var(&o.repeat, "repeat", 0.5, "fraction of cheap traffic from the repeated pool")
	flag.Float64Var(&o.heavy, "heavy", 0.3, "fraction of traffic that is heavy")
	flag.IntVar(&o.timeoutMS, "timeout-ms", 2000, "per-query deadline sent with each request")
	flag.IntVar(&o.burst, "burst", 64, "requests per arrival burst (1 = smooth arrivals)")
	flag.Int64Var(&o.seed, "seed", 1, "workload RNG seed")
	flag.BoolVar(&o.compare, "compare", false, "run the workload with coalescing+lanes off then on (in-process only)")
	flag.BoolVar(&o.bench, "bench", false, "emit benchjson-parseable result lines on stdout")
	flag.IntVar(&o.videos, "videos", 12, "in-process corpus videos")
	flag.IntVar(&o.shots, "shots", 4000, "in-process corpus shots")
	flag.IntVar(&o.annotated, "annotated", 1200, "in-process corpus annotated shots")
	flag.IntVar(&o.heavyBeam, "heavy-beam", 128, "beam width sent with heavy queries")
	flag.Uint64Var(&o.corpusSeed, "corpus-seed", 7, "in-process corpus seed")
	flag.IntVar(&o.maxInflight, "max-inflight", 8, "in-process admission ceiling")
	flag.BoolVar(&o.coalesce, "coalesce", true, "in-process: enable coalescing + two-lane admission")
	flag.IntVar(&o.fastLaneCost, "fast-lane-cost", 0, "in-process lane threshold (0 = auto)")
	flag.IntVar(&o.coord, "coord", 0, "serve through a coordinator over this many TCP shard servers (0 = off)")
	flag.BoolVar(&o.coordFault, "coord-fault", true, "with -coord: kill one shard at t/3, restart it at 2t/3")
	flag.Float64Var(&o.ingestRate, "ingest-rate", 0, "offer this many videos/second to live ingest (0 = off)")
	flag.IntVar(&o.ingestCompactAfter, "ingest-compact-after", 4, "with -ingest-rate: fold the delta every N accepted videos")
	flag.StringVar(&o.federated, "federated", "", "comma-separated domains: drive federated queries over one generated model per domain")
	flag.BoolVar(&o.assertCoalesce, "assert-coalesce", false, "fail unless at least one coalesce hit occurred")
	flag.BoolVar(&o.assertNoErrors, "assert-no-errors", false, "fail on any transport error or non-503 5xx")
	flag.BoolVar(&o.assertDegraded, "assert-degraded", false, "fail unless at least one query degraded (with -coord-fault)")
	flag.Parse()

	if o.compare && o.addr != "" {
		log.Fatal("-compare needs the in-process server (drop -addr)")
	}
	if o.coord > 0 && (o.addr != "" || o.compare) {
		log.Fatal("-coord needs the in-process server and is incompatible with -compare")
	}
	if o.ingestRate > 0 && (o.addr != "" || o.compare || o.coord > 0) {
		log.Fatal("-ingest-rate needs the in-process server and is incompatible with -compare and -coord")
	}
	if o.federated != "" && (o.addr != "" || o.compare || o.coord > 0 || o.ingestRate > 0) {
		log.Fatal("-federated needs the in-process server and is incompatible with -compare, -coord, and -ingest-rate")
	}

	if o.federated != "" {
		rep := runFederated(o)
		rep.report(os.Stderr)
		if o.bench {
			rep.benchLine(os.Stdout)
		}
		if o.assertNoErrors && rep.errors > 0 {
			log.Printf("ASSERT FAILED (federated): %d errors", rep.errors)
			os.Exit(3)
		}
		return
	}

	var built *boot.Built
	if o.addr == "" {
		start := time.Now()
		var err error
		if built, err = o.archive("").Build(""); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hmmmload: corpus %dv/%ds built in %.1fs\n",
			o.videos, o.shots, time.Since(start).Seconds())
	}

	failed := false
	if o.ingestRate > 0 {
		rep := runIngestLoad(built, o)
		rep.report(os.Stderr)
		if o.bench {
			rep.benchLine(os.Stdout)
		}
		if o.assertNoErrors && (rep.errors > 0 || rep.freshMisses > 0 || rep.compactFailures > 0) {
			log.Printf("ASSERT FAILED (ingest): %d errors, %d freshness misses, %d failed compactions",
				rep.errors, rep.freshMisses, rep.compactFailures)
			os.Exit(3)
		}
		return
	}
	if o.coord > 0 {
		rep := runCoord(built.Model, o)
		rep.report(os.Stderr)
		if o.bench {
			rep.benchLine(os.Stdout)
		}
		if o.assertNoErrors && rep.errors > 0 {
			log.Printf("ASSERT FAILED (%s): %d errors", rep.mode, rep.errors)
			failed = true
		}
		if o.assertDegraded && rep.degradedQueries == 0 {
			log.Printf("ASSERT FAILED (%s): no degraded queries — the fault window missed all traffic", rep.mode)
			failed = true
		}
		if failed {
			os.Exit(3)
		}
		return
	}
	run := func(mode string, coalesce bool) {
		url := o.addr
		if o.addr == "" {
			var hs *http.Server
			url, hs = selfServe(built.Model, o, coalesce)
			defer stop(hs)
		}
		rep := drive(url, o)
		rep.mode = mode
		rep.report(os.Stderr)
		if o.bench {
			rep.benchLine(os.Stdout)
		}
		if o.assertCoalesce && rep.coalesceHits == 0 {
			log.Printf("ASSERT FAILED (%s): no coalesce hits", mode)
			failed = true
		}
		if o.assertNoErrors && rep.errors > 0 {
			log.Printf("ASSERT FAILED (%s): %d errors", mode, rep.errors)
			failed = true
		}
	}

	if o.compare {
		run("off", false)
		run("on", true)
	} else {
		mode := "on"
		if o.addr == "" && !o.coalesce {
			mode = "off"
		}
		run(mode, o.coalesce)
	}
	if failed {
		os.Exit(3)
	}
}

// selfServe starts an in-process server over model and returns its base
// URL and the HTTP server to stop. With coalesce off it mirrors the plain
// single-semaphore configuration; with it on it enables coalescing and
// the two-lane controller, auto-deriving the lane threshold from the
// workload's own cost estimates when the flag leaves it 0.
func selfServe(model *hmmm.Model, o opts, coalesce bool) (string, *http.Server) {
	cfg := server.Config{
		Model:        model,
		Options:      boot.Options(0),
		MaxInflight:  o.maxInflight,
		QueryTimeout: time.Duration(o.timeoutMS) * time.Millisecond,
	}
	if coalesce {
		cfg.Coalesce = true
		cfg.FastLaneCost = o.fastLaneCost
		if cfg.FastLaneCost <= 0 {
			c, err := autoFastLaneCost(model, o.heavyBeam)
			if err != nil {
				log.Fatalf("fast-lane cost: %v", err)
			}
			cfg.FastLaneCost = c
			fmt.Fprintf(os.Stderr, "hmmmload: auto fast-lane-cost %d\n", c)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("in-process server: %v", err)
	}
	return listen(srv)
}

// listen serves srv's API on a loopback port and returns its base URL
// and the HTTP server to stop.
func listen(srv *server.Server) (string, *http.Server) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs
}

// stop shuts hs down, waiting up to 5s for in-flight requests.
func stop(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
}

// runCoord serves the workload through a real distributed deployment:
// the archive is split into o.coord shards, each served by its own
// internal/rpc TCP server, and the HTTP front end scatter-gathers
// through a coordinator. With -coord-fault, shard 0's server is killed
// a third of the way into the run and restarted on the same address at
// two thirds; queries through the window return committed partials
// (cost.degraded_shards > 0), never errors, and the report carries the
// measured degraded rate from the coordinator's own counters.
func runCoord(model *hmmm.Model, o opts) *report {
	base := boot.Options(0)
	addrs := make([]string, o.coord)
	servers := make([]*rpc.Server, o.coord)
	svcs := make([]*rpc.ShardService, o.coord)
	for i := range svcs {
		svc, err := boot.ShardService(model, i, o.coord, base, 1)
		if err != nil {
			log.Fatalf("shard %d service: %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("shard %d listen: %v", i, err)
		}
		srv := rpc.NewServer(svc, nil)
		go srv.Serve(ln)
		svcs[i], servers[i], addrs[i] = svc, srv, ln.Addr().String()
	}

	reg := obs.NewRegistry()
	co, err := coord.Dial(strings.Join(addrs, ";"), 2*time.Second, coord.Options{
		AttemptTimeout: 500 * time.Millisecond,
		Metrics:        coord.NewMetrics(reg),
	}, base)
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = co.WaitReady(ctx)
	cancel()
	if err != nil {
		log.Fatalf("waiting for shards: %v", err)
	}

	srv, err := server.New(server.Config{
		Model:        model,
		Options:      base,
		MaxInflight:  o.maxInflight,
		QueryTimeout: time.Duration(o.timeoutMS) * time.Millisecond,
		Registry:     reg,
		Coordinator:  co,
	})
	if err != nil {
		log.Fatalf("in-process server: %v", err)
	}
	url, hs := listen(srv)
	fmt.Fprintf(os.Stderr, "hmmmload: coordinating %d shards over %s\n",
		o.coord, strings.Join(addrs, " "))

	// The fault injector owns servers[0] for the whole run; the cleanup
	// below only reads it after faultWG.Wait().
	var faultWG sync.WaitGroup
	if o.coordFault {
		faultWG.Add(1)
		go func() {
			defer faultWG.Done()
			victim := addrs[0]
			time.Sleep(o.duration / 3)
			servers[0].Close()
			fmt.Fprintf(os.Stderr, "hmmmload: FAULT shard 0 (%s) killed\n", victim)
			time.Sleep(o.duration / 3)
			var rln net.Listener
			var rerr error
			for attempt := 0; attempt < 20; attempt++ {
				if rln, rerr = net.Listen("tcp", victim); rerr == nil {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if rerr != nil {
				log.Printf("restarting shard 0 on %s: %v", victim, rerr)
				return
			}
			servers[0] = rpc.NewServer(svcs[0], nil)
			go servers[0].Serve(rln)
			fmt.Fprintf(os.Stderr, "hmmmload: shard 0 restarted on %s\n", victim)
		}()
	}

	rep := drive(url, o)
	rep.mode = fmt.Sprintf("coord-%d", o.coord)
	if rep.coordShards == 0 {
		// /api/stats was unreachable; keep the bench label honest.
		rep.coordShards = o.coord
	}

	faultWG.Wait()
	stop(hs)
	co.Close()
	for _, s := range servers {
		s.Close()
	}
	return rep
}

// ingestReport aggregates one live-ingest run: the accept latency (ack
// means journaled + already queryable), the freshness lag (submit until
// a video-scoped query first returns the new video), and the background
// prober's query latency — compaction runs off the query path, so a
// serving pause during a fold would surface as the prober's max.
type ingestReport struct {
	rate        float64
	elapsed     time.Duration
	submitted   int
	accepted    int
	rejected    int
	errors      int
	freshMisses int

	acceptLat []time.Duration
	freshLat  []time.Duration
	probeLat  []time.Duration

	compactions     uint64
	compactFailures uint64
	freshAtEnd      int
}

// ingestEvents is the rendered shot timeline of every submitted video:
// event-heavy so the classifier reliably auto-annotates (an all-"none"
// video would be rejected with 422).
var ingestEvents = []string{"goal", "goal_kick", "yellow_card"}

// runIngestLoad boots an in-process server with live ingest on (journal
// and compaction snapshot in a temp dir, so accept latency includes the
// fsync), offers videos open-loop at o.ingestRate, and probes the query
// path continuously while the delta folds every o.ingestCompactAfter
// accepts.
// fedReport summarizes one federated-query run.
type fedReport struct {
	domains []string
	elapsed time.Duration
	queries int
	errors  int
	matches int
	skips   int
	lat     []time.Duration // sorted by report time
}

func (r *fedReport) report(w *os.File) {
	p50, p95, max := latSummary(r.lat)
	fmt.Fprintf(w, "hmmmload: federated over %s for %.1fs: %d queries, %d errors, %d merged matches, %d member skips\n",
		strings.Join(r.domains, ","), r.elapsed.Seconds(), r.queries, r.errors, r.matches, r.skips)
	fmt.Fprintf(w, "hmmmload:   merged-query latency p50 %s p95 %s max %s\n",
		p50.Round(time.Microsecond), p95.Round(time.Microsecond), max.Round(time.Microsecond))
}

func (r *fedReport) benchLine(w *os.File) {
	p50, p95, max := latSummary(r.lat)
	fmt.Fprintf(w, "BenchmarkFederatedQuery/domains=%d %d %.0f ns/op %d p50-ns/op %d p95-ns/op %d max-ns/op %d matches %d member-skips %d errors\n",
		len(r.domains), r.queries, float64(mean(r.lat)), p50.Nanoseconds(), p95.Nanoseconds(), max.Nanoseconds(),
		r.matches, r.skips, r.errors)
}

// runFederated boots one generated model per requested domain behind a
// single in-process server (exactly how `hmmmd -domains` boots) and
// drives POST /api/query/federated closed-loop for the duration,
// rotating through per-domain two-step patterns so every query
// exercises the vocabulary-skip path on the other members.
func runFederated(o opts) *fedReport {
	start := time.Now()
	federation, err := boot.Federation(o.federated, o.archive(""), boot.Options(0))
	if err != nil {
		log.Fatalf("-federated: %v", err)
	}
	names := federation.Names()
	var patterns []string
	for _, name := range names {
		d, _ := videomodel.DomainByName(name)
		evs := d.AllEvents()
		patterns = append(patterns, fmt.Sprintf("%s -> %s", d.EventName(evs[0]), d.EventName(evs[1])))
	}
	b, err := o.archive(names[0]).Build("")
	if err != nil {
		log.Fatalf("-federated: %v", err)
	}
	srv, err := server.New(server.Config{
		Model:        b.Model,
		Options:      boot.Options(0),
		QueryTimeout: time.Duration(o.timeoutMS) * time.Millisecond,
		Federation:   federation,
	})
	if err != nil {
		log.Fatalf("-federated: in-process server: %v", err)
	}
	url, hs := listen(srv)
	cl := &http.Client{Timeout: time.Duration(o.timeoutMS)*time.Millisecond + 5*time.Second}
	fmt.Fprintf(os.Stderr, "hmmmload: federation %s ready in %.1fs\n",
		strings.Join(names, ","), time.Since(start).Seconds())

	rep := &fedReport{domains: names}
	deadline := time.Now().Add(o.duration)
	runStart := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		body, _ := json.Marshal(api.FederatedQueryRequest{Pattern: patterns[i%len(patterns)], TopK: 10})
		qStart := time.Now()
		resp, err := cl.Post(url+"/api/query/federated", "application/json", strings.NewReader(string(body)))
		rep.queries++
		if err != nil {
			rep.errors++
			continue
		}
		var out api.FederatedQueryResponse
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			rep.errors++
			continue
		}
		rep.lat = append(rep.lat, time.Since(qStart))
		rep.matches += len(out.Matches)
		for _, mr := range out.Members {
			if mr.Skipped {
				rep.skips++
			}
		}
	}
	rep.elapsed = time.Since(runStart)
	stop(hs)
	return rep
}

func runIngestLoad(b *boot.Built, o opts) *ingestReport {
	cfg, err := b.Live()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "hmmmload-ingest-*")
	if err != nil {
		log.Fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(dir)
	cfg.LogPath = filepath.Join(dir, "ingest.log")
	cfg.SnapshotPath = filepath.Join(dir, "corpus.snapshot")
	cfg.CompactAfter = o.ingestCompactAfter
	srv, err := server.New(server.Config{
		Model:        b.Model,
		Options:      boot.Options(0),
		QueryTimeout: time.Duration(o.timeoutMS) * time.Millisecond,
		Live:         cfg,
	})
	if err != nil {
		log.Fatalf("in-process server: %v", err)
	}
	url, hs := listen(srv)
	cl := &http.Client{Timeout: time.Duration(o.timeoutMS)*time.Millisecond + 5*time.Second}
	fmt.Fprintf(os.Stderr, "hmmmload: live ingest at %.1f videos/s, compact every %d, journal in %s\n",
		o.ingestRate, o.ingestCompactAfter, dir)

	rep := &ingestReport{rate: o.ingestRate}
	var mu sync.Mutex

	query := func(req api.QueryRequest) (*api.QueryResponse, error) {
		body, _ := json.Marshal(req)
		resp, err := cl.Post(url+"/api/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("query: status %d", resp.StatusCode)
		}
		var out api.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return &out, nil
	}

	// Background prober: a cheap repeated query at a steady cadence for
	// the whole run. Its latency tail is the serving-pause measurement.
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			start := time.Now()
			_, err := query(api.QueryRequest{Pattern: "goal", TopK: 10})
			lat := time.Since(start)
			mu.Lock()
			if err == nil {
				rep.probeLat = append(rep.probeLat, lat)
			} else {
				rep.errors++
			}
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	submit := func(i int) {
		start := time.Now()
		body, _ := json.Marshal(api.IngestRequest{
			Name: fmt.Sprintf("load-%d", i), Seed: uint64(i + 1),
			Events: ingestEvents, ShotMS: 3000,
		})
		resp, err := cl.Post(url+"/api/ingest", "application/json", strings.NewReader(string(body)))
		if err != nil {
			mu.Lock()
			rep.errors++
			mu.Unlock()
			return
		}
		var ack api.IngestResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		accept := time.Since(start)
		mu.Lock()
		switch {
		case resp.StatusCode == http.StatusOK && decodeErr == nil:
			rep.accepted++
			rep.acceptLat = append(rep.acceptLat, accept)
		case resp.StatusCode == http.StatusUnprocessableEntity:
			rep.rejected++
		default:
			rep.errors++
		}
		mu.Unlock()
		if resp.StatusCode != http.StatusOK || decodeErr != nil {
			return
		}
		// Freshness lag: poll a query scoped to the acked video until the
		// ranking contains it. The classifier chooses the labels, so cycle
		// the rendered events until one hits.
		pollDeadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(pollDeadline) {
			for _, ev := range ingestEvents {
				out, err := query(api.QueryRequest{Pattern: ev, ScopeVideo: ack.VideoID, TopK: 1})
				if err == nil && len(out.Matches) > 0 {
					mu.Lock()
					rep.freshLat = append(rep.freshLat, time.Since(start))
					mu.Unlock()
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		mu.Lock()
		rep.freshMisses++
		mu.Unlock()
	}

	interval := time.Duration(float64(time.Second) / o.ingestRate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(o.duration)
	start := time.Now()
	var wg sync.WaitGroup
	seq := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			wg.Add(1)
			go func(i int) { defer wg.Done(); submit(i) }(seq)
			seq++
		}
	}
	wg.Wait()
	close(probeStop)
	probeWG.Wait()
	rep.submitted = seq
	rep.elapsed = time.Since(start)

	// Shut down before reading the counters and before the deferred
	// RemoveAll: Shutdown waits for the compaction the last accepts may
	// have started, so its outcome is counted and its snapshot write does
	// not lose the directory under it. The handler outlives the listener.
	if err := srv.Shutdown(hs, 30*time.Second); err != nil {
		log.Printf("hmmmload: ingest server shutdown: %v", err)
		rep.errors++
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	var stats api.StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&stats); err == nil && stats.Ingest != nil {
		rep.compactions = stats.Ingest.Compactions
		rep.compactFailures = stats.Ingest.CompactFailures
		rep.freshAtEnd = stats.Ingest.FreshVideos
	}
	return rep
}

// latSummary returns the median, p95 and maximum of lat.
func latSummary(lat []time.Duration) (p50, p95, max time.Duration) {
	return percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 1)
}

func (r *ingestReport) report(w *os.File) {
	fmt.Fprintf(w, "hmmmload: ingest rate=%.1f/s for %.1fs: submitted %d, accepted %d, rejected %d, errors %d\n",
		r.rate, r.elapsed.Seconds(), r.submitted, r.accepted, r.rejected, r.errors)
	ap50, ap95, amax := latSummary(r.acceptLat)
	fmt.Fprintf(w, "hmmmload:   accept latency  p50 %s p95 %s max %s (ack = journaled + queryable)\n",
		ap50.Round(time.Microsecond), ap95.Round(time.Microsecond), amax.Round(time.Microsecond))
	fp50, fp95, fmax := latSummary(r.freshLat)
	fmt.Fprintf(w, "hmmmload:   freshness lag   p50 %s p95 %s max %s (%d misses)\n",
		fp50.Round(time.Microsecond), fp95.Round(time.Microsecond), fmax.Round(time.Microsecond), r.freshMisses)
	qp50, qp95, qmax := latSummary(r.probeLat)
	fmt.Fprintf(w, "hmmmload:   query prober    p50 %s p95 %s max %s over %d probes (compaction pause surfaces as max)\n",
		qp50.Round(time.Microsecond), qp95.Round(time.Microsecond), qmax.Round(time.Microsecond), len(r.probeLat))
	fmt.Fprintf(w, "hmmmload:   compactions %d (%d failed), %d fresh at end\n",
		r.compactions, r.compactFailures, r.freshAtEnd)
}

func (r *ingestReport) benchLine(w *os.File) {
	ap50, ap95, _ := latSummary(r.acceptLat)
	fp50, fp95, _ := latSummary(r.freshLat)
	_, _, qmax := latSummary(r.probeLat)
	qp99 := percentile(r.probeLat, 0.99)
	fmt.Fprintf(w, "BenchmarkIngest/rate=%g %d %.0f ns/op %d accept-p50-ns/op %d accept-p95-ns/op %d fresh-p50-ns/op %d fresh-p95-ns/op %d probe-p99-ns/op %d probe-max-ns/op %d compactions %d fresh-misses\n",
		r.rate, r.accepted, float64(mean(r.acceptLat)), ap50.Nanoseconds(), ap95.Nanoseconds(),
		fp50.Nanoseconds(), fp95.Nanoseconds(), qp99.Nanoseconds(), qmax.Nanoseconds(),
		r.compactions, r.freshMisses)
}

// autoFastLaneCost places the lane threshold halfway between the most
// expensive cheap-pool estimate and the cheapest heavy-pool estimate,
// so the generator's own traffic classes provably split across lanes.
func autoFastLaneCost(model *hmmm.Model, heavyBeam int) (int, error) {
	cheap, heavy := boot.Options(0), boot.Options(0)
	cheap.AnnotatedOnly, heavy.Beam = true, heavyBeam
	cheapEng, err := retrieval.NewEngine(model, cheap)
	if err != nil {
		return 0, err
	}
	heavyEng, err := retrieval.NewEngine(model, heavy)
	if err != nil {
		return 0, err
	}
	// estimate totals each pattern's lattice-cost estimate on eng.
	estimate := func(eng *retrieval.Engine, pool []string) ([]int, error) {
		costs := make([]int, len(pool))
		for i, p := range pool {
			queries, err := matn.CompileString(p)
			if err != nil {
				return nil, err
			}
			for _, q := range queries {
				costs[i] += eng.EstimateCost(q)
			}
		}
		return costs, nil
	}
	cheapCosts, err := estimate(cheapEng, cheapPool)
	if err != nil {
		return 0, err
	}
	heavyCosts, err := estimate(heavyEng, heavyPool)
	if err != nil {
		return 0, err
	}
	maxCheap, minHeavy := slices.Max(cheapCosts), slices.Min(heavyCosts)
	if minHeavy <= maxCheap {
		return maxCheap, nil
	}
	return maxCheap + (minHeavy-maxCheap)/2, nil
}

// sample is one finished request.
type sample struct {
	cheap   bool
	status  int // -1 on transport error
	latency time.Duration
}

// report aggregates one load run.
type report struct {
	mode     string
	offered  float64
	sent     int
	ok       int
	shed     int
	errors   int
	elapsed  time.Duration
	mean     time.Duration
	p50      time.Duration
	p95      time.Duration
	p99      time.Duration
	cheapP99 time.Duration

	coalesceRequests uint64
	coalesceHits     uint64
	coalesceHitRate  float64

	coordShards     int
	coordQueries    uint64
	degradedQueries uint64
	coordRetries    uint64
	coordEjections  uint64
}

// drive offers the mixed workload open-loop at o.qps for o.duration and
// aggregates the outcome, reading the server's coalesce counters from
// /api/stats afterwards.
func drive(url string, o opts) *report {
	rng := rand.New(rand.NewSource(o.seed))
	transport := &http.Transport{MaxIdleConnsPerHost: 256}
	cl := &http.Client{Transport: transport,
		Timeout: time.Duration(o.timeoutMS)*time.Millisecond + 5*time.Second}
	defer transport.CloseIdleConnections()

	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	fire := func(req api.QueryRequest, cheap bool) {
		defer wg.Done()
		body, _ := json.Marshal(req)
		start := time.Now()
		resp, err := cl.Post(url+"/api/query", "application/json", strings.NewReader(string(body)))
		s := sample{cheap: cheap, status: -1, latency: time.Since(start)}
		if err == nil {
			s.status = resp.StatusCode
			resp.Body.Close()
		}
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	// Arrivals come in bursts of o.burst requests: real query traffic is
	// bursty (cache expiry, page loads, fan-out backends), and bursts are
	// what admission control and coalescing exist for. burst=1 degrades
	// to smooth open-loop arrivals.
	burst := o.burst
	if burst < 1 {
		burst = 1
	}
	interval := time.Duration(float64(burst) * float64(time.Second) / o.qps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(o.duration)
	start := time.Now()
	sent := 0
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			for b := 0; b < burst; b++ {
				req := api.QueryRequest{TimeoutMS: o.timeoutMS}
				cheap := true
				switch {
				case rng.Float64() < o.heavy:
					cheap = false
					req.Pattern = heavyPool[rng.Intn(len(heavyPool))]
					req.SimilarShots = true
					req.Beam = o.heavyBeam
				case rng.Float64() < o.repeat:
					req.Pattern = cheapPool[rng.Intn(len(cheapPool))]
				default:
					// Unique: a per-request scope bound far past every
					// shot start keeps the ranking identical while
					// defeating coalescing, like real one-off queries do.
					req.Pattern = cheapPool[rng.Intn(len(cheapPool))]
					req.ScopeToMS = 100_000_000 + sent
				}
				sent++
				wg.Add(1)
				go fire(req, cheap)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{mode: "on", offered: o.qps, sent: sent, elapsed: elapsed}
	var okLat, cheapLat []time.Duration
	for _, s := range samples {
		switch {
		case s.status == http.StatusOK:
			rep.ok++
			okLat = append(okLat, s.latency)
			if s.cheap {
				cheapLat = append(cheapLat, s.latency)
			}
		case s.status == http.StatusServiceUnavailable:
			rep.shed++
		default:
			rep.errors++
		}
	}
	rep.mean = mean(okLat)
	rep.p50 = percentile(okLat, 0.50)
	rep.p95 = percentile(okLat, 0.95)
	rep.p99 = percentile(okLat, 0.99)
	rep.cheapP99 = percentile(cheapLat, 0.99)

	if stats := fetchStats(cl, url); stats != nil {
		if stats.Runtime != nil {
			rep.coalesceRequests = stats.Runtime.CoalesceRequests
			rep.coalesceHits = stats.Runtime.CoalesceHits
			rep.coalesceHitRate = stats.Runtime.CoalesceHitRate
		}
		if stats.Coord != nil {
			rep.coordShards = stats.Coord.Shards
			rep.coordQueries = stats.Coord.Queries
			rep.degradedQueries = stats.Coord.DegradedQueries
			rep.coordRetries = stats.Coord.Retries
			rep.coordEjections = stats.Coord.Ejections
		}
	}
	return rep
}

func fetchStats(cl *http.Client, url string) *api.StatsResponse {
	resp, err := cl.Get(url + "/api/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if json.NewDecoder(resp.Body).Decode(&stats) != nil {
		return nil
	}
	return &stats
}

// mean is the average of lat (0 when empty).
func mean(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	return sum / time.Duration(len(lat))
}

// percentile returns the p-quantile of latencies (sorted in place; 0
// when empty).
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(p * float64(len(lat)-1))
	return lat[idx]
}

func (r *report) goodput() float64 {
	return float64(r.ok) / r.elapsed.Seconds()
}

func (r *report) shedRate() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.shed) / float64(r.sent)
}

// degradedRate is the fraction of coordinated queries that committed a
// partial (some shard unreachable through retries and failover).
func (r *report) degradedRate() float64 {
	if r.coordQueries == 0 {
		return 0
	}
	return float64(r.degradedQueries) / float64(r.coordQueries)
}

// label names the run for the human report and the bench line: the
// coalesce on/off axis for single-engine runs, the shard count for
// coordinated ones.
func (r *report) label() string {
	if r.coordShards > 0 {
		return fmt.Sprintf("coord=%d", r.coordShards)
	}
	return "coalesce=" + r.mode
}

func (r *report) report(w *os.File) {
	fmt.Fprintf(w, "hmmmload: %s offered %.0f qps for %.1fs: sent %d, ok %d (goodput %.1f qps), shed %d (%.1f%%), errors %d\n",
		r.label(), r.offered, r.elapsed.Seconds(), r.sent, r.ok, r.goodput(), r.shed, 100*r.shedRate(), r.errors)
	fmt.Fprintf(w, "hmmmload:   latency mean %s p50 %s p95 %s p99 %s (cheap p99 %s)\n",
		r.mean.Round(time.Microsecond), r.p50.Round(time.Microsecond),
		r.p95.Round(time.Microsecond), r.p99.Round(time.Microsecond),
		r.cheapP99.Round(time.Microsecond))
	fmt.Fprintf(w, "hmmmload:   coalesce: %d requests, %d hits (rate %.2f)\n",
		r.coalesceRequests, r.coalesceHits, r.coalesceHitRate)
	if r.coordShards > 0 {
		fmt.Fprintf(w, "hmmmload:   coord: %d shards, %d queries, %d degraded (rate %.4f), %d retries, %d ejections\n",
			r.coordShards, r.coordQueries, r.degradedQueries, r.degradedRate(),
			r.coordRetries, r.coordEjections)
	}
}

// benchLine renders the run as one `go test -bench`-style line so
// cmd/benchjson can append it to a trajectory file. ns/op is the mean
// successful-query latency; the custom units land in the entry's Extra
// map.
func (r *report) benchLine(w *os.File) {
	if r.coordShards > 0 {
		fmt.Fprintf(w, "BenchmarkServing/%s %d %.0f ns/op %d p50-ns/op %d p95-ns/op %d p99-ns/op %.2f goodput-qps %.2f offered-qps %.4f shed-rate %.4f degraded-rate %d degraded-queries %d coord-retries\n",
			r.label(), r.sent, float64(r.mean), r.p50.Nanoseconds(), r.p95.Nanoseconds(),
			r.p99.Nanoseconds(), r.goodput(), r.offered, r.shedRate(),
			r.degradedRate(), r.degradedQueries, r.coordRetries)
		return
	}
	fmt.Fprintf(w, "BenchmarkServing/%s %d %.0f ns/op %d p50-ns/op %d p95-ns/op %d p99-ns/op %d cheap-p99-ns/op %.2f goodput-qps %.2f offered-qps %.4f shed-rate %.4f coalesce-hit-rate\n",
		r.label(), r.sent, float64(r.mean), r.p50.Nanoseconds(), r.p95.Nanoseconds(),
		r.p99.Nanoseconds(), r.cheapP99.Nanoseconds(), r.goodput(), r.offered,
		r.shedRate(), r.coalesceHitRate)
}
