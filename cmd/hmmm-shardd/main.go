// Command hmmm-shardd serves ONE shard of an HMMM archive over the
// compact TCP protocol of internal/rpc, as one backend of a
// coordinator (`hmmmd -coord`, or any internal/coord user).
//
// Every shard server and the coordinator take the same archive flags
// (-model, -seed, -videos, -shots, -annotated, -domain: hmmmd's, with
// the same defaults; internal/boot builds the archive for both) and
// agree on -of: the shard split is deterministic, so identical inputs
// give every process the identical by-video partition, and the
// coordinator's merged ranking is bit-identical to serving the whole
// archive locally. The coordinator's WaitReady verifies each endpoint's
// (shard, of) identity and domain at startup, so a mis-wired address or
// a shard given another -domain fails fast instead of merging the wrong
// partition or vocabulary.
//
// Usage:
//
//	hmmm-shardd -shard 0 -of 4 [archive flags] [flags]
//
//	-shard     int     this server's shard index (required, 0-based)
//	-of        int     total shard count of the split (required)
//	-addr      string  listen address (default 127.0.0.1:8090)
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

	"github.com/videodb/hmmm/internal/boot"
	"github.com/videodb/hmmm/internal/rpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmmm-shardd: ")

	var archive boot.Archive
	archive.RegisterFlags(flag.CommandLine)
	var (
		shardIdx = flag.Int("shard", -1, "this server's shard index (0-based)")
		of       = flag.Int("of", 0, "total shard count of the split")
		addr     = flag.String("addr", "127.0.0.1:8090", "listen address")
		gen      = flag.Uint64("generation", 1, "model generation stamped on responses")
		coarse   = flag.Int("coarse-candidates", 0, "coarse prefilter budget per query step (0 = exact-only)")
		grace    = flag.Duration("shutdown-grace", 5*time.Second, "graceful-shutdown drain window")
	)
	flag.Parse()

	if err := (boot.Modes{ShardServer: true, Shard: *shardIdx, Of: *of}).Validate(archive); err != nil {
		log.Fatal(err)
	}
	b, err := archive.Build("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(b.Origin)
	svc, err := boot.ShardService(b.Model, *shardIdx, *of, boot.Options(*coarse), *gen)
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
