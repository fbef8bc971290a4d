// Command hmmmd serves the HMMM retrieval API over HTTP: the server side
// of the paper's Figure-5 client/server retrieval system.
//
// Usage:
//
//	hmmmd [archive flags] [flags]
//
//	-addr      string  listen address (default :8077)
//	-retrain   int     feedback count that triggers auto retraining
//	                   (default 10; 0 disables)
//	-feedback-log string  persist the feedback log across restarts
//	-coarse-candidates int  two-stage retrieval: prefilter each query to
//	                   at most this many candidate videos per pattern
//	                   step with the coarse index before the exact
//	                   lattice (DESIGN.md §5f). 0 (the default) serves
//	                   exact-only, bit-identical to prior releases
//
// Archive flags (internal/boot; hmmm-shardd takes the same set, and
// every process of a -coord fleet must be given the same values):
//
//	-model     string  load a model snapshot written by hmmm-gen;
//	                   empty generates a fresh corpus in memory
//	-seed      uint    seed for the in-memory corpus (default 1)
//	-videos    int     in-memory corpus videos (default 54)
//	-shots     int     in-memory corpus shots (default 11567)
//	-annotated int     in-memory corpus annotated shots (default 506)
//	-domain    string  event vocabulary (soccer, basketball, news;
//	                   DESIGN.md §5j): the generated corpus samples the
//	                   domain's timeline grammar, and a loaded -model
//	                   must be stamped with it. Empty = soccer / accept
//	                   the model's own stamp
//
// Federation flag (DESIGN.md §5j):
//
//	-domains string   additionally serve POST /api/query/federated: a
//	                  comma-separated list of domains, each backed by its
//	                  own generated archive and model, queried together
//	                  and merged into one cross-domain ranking
//	                  (hmmmctl query "..." -domains all)
//
// Distributed serving flags (DESIGN.md §5h):
//
//	-coord      string    serve /api/query by scatter-gather over remote
//	                      shard servers (cmd/hmmm-shardd): ';' separates
//	                      shards, ',' separates replica addresses of one
//	                      shard ("h1:8090;h2:8090,h2b:8090"). The local
//	                      model (same archive flags as the shard servers)
//	                      still serves browse and Explain
//	-coord-wait duration  how long to wait at startup for every shard to
//	                      report READY with the expected identity
//	                      (default 30s; 0 skips the check)
//
// Live ingest flags (DESIGN.md §5i):
//
//	-ingest            bool      accept new videos at runtime via POST
//	                             /api/ingest: journaled durably, served
//	                             immediately from a delta sub-model, and
//	                             folded into full rebuilds by background
//	                             compaction. Requires the corpus, so it
//	                             runs in generated-corpus mode (no
//	                             -model) or resumes from a compacted
//	                             -ingest-snapshot. Mutually exclusive
//	                             with -coord
//	-ingest-log        string    crash-safe ingest journal path; replayed
//	                             at startup so every acknowledged video
//	                             survives a crash (empty = memory only)
//	-ingest-snapshot   string    persist the merged corpus here at each
//	                             compaction (and resume from it at boot);
//	                             only with it set may compaction truncate
//	                             the journal
//	-compact-after     int       fold the delta into a full rebuild once
//	                             it holds this many videos (default 8;
//	                             0 disables)
//
// Resilience flags:
//
//	-query-timeout  duration  per-query deadline; expired queries return
//	                          their partial ranking with cost.truncated
//	                          set (default 10s; 0 disables)
//	-max-inflight   int       admission-control ceiling; excess requests
//	                          are shed with 503 + Retry-After
//	                          (default 64; 0 disables)
//	-coalesce       bool      deduplicate identical in-flight queries:
//	                          requests with the same canonical pattern,
//	                          result-affecting options, deadline budget,
//	                          and model generation share one retrieval
//	                          and are answered bit-identically
//	                          (default true)
//	-fast-lane-cost int       two-lane query admission: queries whose
//	                          estimated lattice cost is at or under this
//	                          take the fast lane; costlier ones take the
//	                          bounded heavy lane, whose queue sheds with
//	                          503 before a queued deadline could expire
//	                          (default 1000; 0 restores the single
//	                          MaxInflight semaphore)
//	-heavy-queue    int       heavy-lane wait-queue bound
//	                          (default 64)
//	-max-body       int       request body cap in bytes
//	                          (default 1 MiB; -1 disables)
//	-shutdown-grace duration  how long SIGINT/SIGTERM waits for in-flight
//	                          requests before exiting (default 10s)
//
// Observability flags:
//
//	-debug-addr string    serve pprof, expvar, and a /metrics mirror on a
//	                      second listener (default off; keep it off the
//	                      production port — the endpoints are
//	                      unauthenticated)
//	-slow-query duration  log queries taking at least this long as JSON
//	                      lines on stderr (default 0 = disabled)
//
// The main listener always serves Prometheus metrics at /metrics and the
// operational roll-up inside GET /api/stats ("runtime" section; also
// `hmmmctl stats`).
//
// On SIGINT/SIGTERM the daemon flips /api/health to 503 "draining",
// waits up to -shutdown-grace for in-flight requests, persists the
// feedback log a final time, and exits.
package main

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/videodb/hmmm/internal/boot"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/server"
	"github.com/videodb/hmmm/internal/store"
)

// orMemory renders an optional path flag for the startup banner.
func orMemory(path string) string {
	if path == "" {
		return "(memory)"
	}
	return path
}

// processSeed returns a per-process seed for the coordinator's
// retry/backoff jitter. A fleet of coordinators sharing the library's
// fixed default seed would draw identical jitter sequences and re-arrive
// in lockstep — exactly the synchronization the jitter exists to break.
func processSeed() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if s := binary.LittleEndian.Uint64(b[:]); s != 0 {
			return s
		}
	}
	return uint64(os.Getpid()) ^ uint64(time.Now().UnixNano())
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmmmd: ")

	var archive boot.Archive
	archive.RegisterFlags(flag.CommandLine)
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		retrain = flag.Int("retrain", 10, "feedback threshold for auto retraining (0 disables)")
		fbLog   = flag.String("feedback-log", "", "persist the feedback log to this path")
		coarse  = flag.Int("coarse-candidates", 0, "coarse prefilter budget per query step (0 = exact-only)")

		domainsSpec = flag.String("domains", "", "additionally serve POST /api/query/federated over a federation of per-domain generated archives (comma-separated domain names, e.g. soccer,basketball,news)")

		coordSpec = flag.String("coord", "", "remote shard servers to coordinate over (';' shards, ',' replicas; empty = local serving)")
		coordWait = flag.Duration("coord-wait", 30*time.Second, "startup wait for every remote shard to report READY (0 skips)")

		ingestOn     = flag.Bool("ingest", false, "accept new videos at runtime via POST /api/ingest")
		ingestLog    = flag.String("ingest-log", "", "crash-safe ingest journal path (empty = memory only)")
		ingestSnap   = flag.String("ingest-snapshot", "", "persist the merged corpus here at each compaction; resume from it at boot")
		compactAfter = flag.Int("compact-after", 8, "fold the delta into a full rebuild once it holds this many videos (0 disables)")

		queryTimeout = flag.Duration("query-timeout", 10*time.Second, "per-query deadline (0 disables)")
		maxInflight  = flag.Int("max-inflight", 64, "max concurrently served requests (0 disables shedding)")
		coalesceQ    = flag.Bool("coalesce", true, "deduplicate identical in-flight queries")
		fastLaneCost = flag.Int("fast-lane-cost", 1000, "estimated-cost threshold for the fast admission lane (0 = single semaphore)")
		heavyQueue   = flag.Int("heavy-queue", server.DefaultHeavyQueue, "heavy-lane wait-queue bound")
		maxBody      = flag.Int64("max-body", server.DefaultMaxRequestBytes, "request body cap in bytes (-1 disables)")
		grace        = flag.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown drain window")

		debugAddr = flag.String("debug-addr", "", "serve pprof/expvar/metrics on this second listener (empty disables)")
		slowQuery = flag.Duration("slow-query", 0, "log queries taking at least this long to stderr as JSON lines (0 disables)")
	)
	flag.Parse()

	if err := (boot.Modes{Coord: *coordSpec, Ingest: *ingestOn}).Validate(archive); err != nil {
		log.Fatal(err)
	}
	opts := boot.Options(*coarse)
	resume := ""
	if *ingestOn {
		resume = *ingestSnap
	}

	// The registry exists before the model loads so the store's
	// recovery-chain counters cover the boot load itself.
	reg := obs.NewRegistry()
	store.SetMetrics(store.NewMetrics(reg))

	b, err := archive.Build(resume)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(b.Origin)

	var liveCfg *live.Config
	if *ingestOn {
		start := time.Now()
		if liveCfg, err = b.Live(); err != nil {
			log.Fatal(err)
		}
		liveCfg.LogPath, liveCfg.SnapshotPath = *ingestLog, *ingestSnap
		liveCfg.CompactAfter = *compactAfter
		fmt.Printf("live ingest on: classifier trained in %.1fs, journal=%s snapshot=%s compact-after=%d\n",
			time.Since(start).Seconds(), orMemory(*ingestLog), orMemory(*ingestSnap), *compactAfter)
	}

	var coordinator *coord.Coordinator
	if *coordSpec != "" {
		coordinator, err = coord.Dial(*coordSpec, 2*time.Second,
			coord.Options{Metrics: coord.NewMetrics(reg), Seed: processSeed()}, opts)
		if err != nil {
			log.Fatalf("coordinator: %v", err)
		}
		if *coordWait > 0 {
			wctx, cancel := context.WithTimeout(context.Background(), *coordWait)
			err := coordinator.WaitReady(wctx)
			cancel()
			if err != nil {
				log.Fatalf("waiting for remote shards: %v", err)
			}
		}
		fmt.Printf("coordinating %d remote shards (%s)\n", coordinator.NumShards(), *coordSpec)
	}

	var federation *fed.Federation
	if *domainsSpec != "" {
		start := time.Now()
		if federation, err = boot.Federation(*domainsSpec, archive, opts); err != nil {
			log.Fatalf("-domains: %v", err)
		}
		fmt.Printf("federation ready in %.1fs: %s\n",
			time.Since(start).Seconds(), strings.Join(federation.Names(), ", "))
	}

	var slowWriter io.Writer
	if *slowQuery > 0 {
		slowWriter = os.Stderr
	}
	srv, err := server.New(server.Config{
		Model:              b.Model,
		Options:            opts,
		RetrainThreshold:   *retrain,
		FeedbackLogPath:    *fbLog,
		Coordinator:        coordinator,
		Live:               liveCfg,
		Federation:         federation,
		QueryTimeout:       *queryTimeout,
		MaxInflight:        *maxInflight,
		Coalesce:           *coalesceQ,
		FastLaneCost:       *fastLaneCost,
		HeavyQueue:         *heavyQueue,
		MaxRequestBytes:    *maxBody,
		Registry:           reg,
		SlowQueryThreshold: *slowQuery,
		SlowQueryWriter:    slowWriter,
	})
	if err != nil {
		log.Fatalf("starting server: %v", err)
	}
	if *coarse > 0 {
		fmt.Printf("two-stage retrieval: coarse prefilter keeps <= %d candidate videos per query step\n", *coarse)
	}
	if *coalesceQ {
		fmt.Printf("request coalescing on: identical in-flight queries share one retrieval\n")
	}
	if *fastLaneCost > 0 {
		fmt.Printf("two-lane admission: fast lane at estimated cost <= %d, heavy queue bound %d\n",
			*fastLaneCost, *heavyQueue)
	}

	if *debugAddr != "" {
		// pprof and expvar stay off the production listener: they are
		// unauthenticated and can be expensive to serve.
		ds := &http.Server{Addr: *debugAddr, Handler: obs.DebugHandler(reg)}
		go func() {
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
		fmt.Printf("debug endpoints (pprof, expvar, metrics) on %s\n", *debugAddr)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("listening on %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining for up to %v", *grace)
		if err := srv.Shutdown(hs, *grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("shutdown: %v", err)
		}
		if coordinator != nil {
			coordinator.Close()
		}
		log.Printf("drained and persisted; bye")
	}
}
