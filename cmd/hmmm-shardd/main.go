// Command hmmm-shardd serves ONE shard of an HMMM archive over the
// compact TCP protocol of internal/rpc, as one backend of a
// coordinator (hmmmd -coord, or any internal/coord user).
//
// Every shard server and the coordinator must derive their model from
// the same source — the same -model snapshot or the same generation
// flags (-seed/-videos/-shots/-annotated) — and agree on -of: the
// shard split is deterministic, so identical inputs give every process
// the identical by-video partition, and the coordinator's merged
// ranking is bit-identical to serving the whole archive locally. The
// coordinator's WaitReady verifies each endpoint's (shard, of) identity
// at startup, so a mis-wired address fails fast instead of merging the
// wrong partition.
//
// Usage:
//
//	hmmm-shardd -shard 0 -of 4 [flags]
//
//	-shard     int     this server's shard index (required, 0-based)
//	-of        int     total shard count of the split (required)
//	-addr      string  listen address (default 127.0.0.1:8090)
//	-model     string  load a model snapshot written by hmmm-gen;
//	                   empty generates the corpus in memory
//	-seed      uint    seed for the in-memory corpus (default 1)
//	-videos    int     in-memory corpus videos (default 54)
//	-shots     int     in-memory corpus shots (default 11567)
//	-annotated int     in-memory corpus annotated shots (default 506)
//	-generation uint   model generation stamped on every response; bump
//	                   it in lock-step across shards when rolling out a
//	                   new model so the coordinator never merges mixed
//	                   generations (default 1)
//	-coarse-candidates int  coarse prefilter budget per query step
//	                   (0 = exact-only); must be 0 exactly when the
//	                   coordinator's is (a query whose setting differs
//	                   is refused as bad_request)
//	-shutdown-grace duration  drain window before close (default 5s)
//
// On SIGINT/SIGTERM the server flips to DRAINING (retrievals are
// refused with a transient error the coordinator retries elsewhere,
// status still answers), waits the grace window for in-flight requests,
// then closes.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmmm-shardd: ")

	var (
		shardIdx  = flag.Int("shard", -1, "this server's shard index (0-based)")
		of        = flag.Int("of", 0, "total shard count of the split")
		addr      = flag.String("addr", "127.0.0.1:8090", "listen address")
		modelPath = flag.String("model", "", "model snapshot to shard (empty = generate)")
		seed      = flag.Uint64("seed", 1, "seed for the generated corpus")
		videos    = flag.Int("videos", 54, "generated corpus videos")
		shots     = flag.Int("shots", 11567, "generated corpus shots")
		annotated = flag.Int("annotated", 506, "generated corpus annotated shots")
		gen       = flag.Uint64("generation", 1, "model generation stamped on responses")
		coarse    = flag.Int("coarse-candidates", 0, "coarse prefilter budget per query step (0 = exact-only)")
		grace     = flag.Duration("shutdown-grace", 5*time.Second, "graceful-shutdown drain window")
	)
	flag.Parse()

	if *of <= 0 || *shardIdx < 0 || *shardIdx >= *of {
		log.Fatalf("need -shard in [0, of) and -of >= 1 (got -shard %d -of %d)", *shardIdx, *of)
	}

	var model *hmmm.Model
	if *modelPath != "" {
		var err error
		var from string
		model, from, err = store.LoadModelRecover(*modelPath)
		if err != nil {
			log.Fatalf("loading model: %v", err)
		}
		if from != *modelPath {
			log.Printf("WARNING: model %s unreadable; recovered from %s", *modelPath, from)
		}
	} else {
		corpus, err := dataset.Build(dataset.Config{
			Seed: *seed, Videos: *videos, Shots: *shots, Annotated: *annotated, Fast: true,
		})
		if err != nil {
			log.Fatalf("building corpus: %v", err)
		}
		model, err = hmmm.Build(corpus.Archive, corpus.Features, hmmm.BuildOptions{LearnP12: true})
		if err != nil {
			log.Fatalf("building model: %v", err)
		}
	}

	shards, err := shard.Split(model, *of)
	if err != nil {
		log.Fatalf("splitting model: %v", err)
	}
	if len(shards) != *of {
		// The archive could not fill the requested split; serving a
		// different partition than the coordinator expects would merge
		// garbage, so refuse loudly.
		log.Fatalf("archive splits into %d shards, not the requested %d; lower -of on every process", len(shards), *of)
	}
	svc, err := rpc.NewShardService(shards[*shardIdx], *shardIdx, *of,
		retrieval.Options{Beam: 4, TopK: 10, CoarseCandidates: *coarse}, *gen)
	if err != nil {
		log.Fatalf("shard service: %v", err)
	}

	srv := rpc.NewServer(svc, log.Printf)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	st := svc.Status()
	fmt.Printf("serving shard %d of %d (%d videos, %d states) generation %d on %s\n",
		st.Shard, st.OfShards, st.Videos, st.States, *gen, ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-sigc:
		// Drain first: retrievals get a transient refusal the coordinator
		// routes around, in-flight work finishes inside the grace window.
		log.Printf("signal received; draining for up to %v", *grace)
		srv.Drain()
		time.Sleep(*grace)
		srv.Close()
		log.Printf("drained; bye")
	}
}
