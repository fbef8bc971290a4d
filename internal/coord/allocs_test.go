package coord

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// maxRetrieveAllocs is the allocation ceiling of one warm
// Coordinator.RetrieveContext over two loopback rpc.Server shards, as
// hmmmd runs it under a query deadline. It counts the whole process: the
// coordinator, both rpc clients, and both shard servers' decode,
// retrieval and encode. Measured with go1.24.0 on linux/amd64: 20, plus
// 5% slack (44 when every exchange copied the request to set its budget
// and boxed its response, and every shard server built a new request,
// response and ranking per request; 68 when each shard server also
// built a timer context for the budget and each step of the Events
// query was copied on every validation; 87 when every exchange also
// allocated a timeout context, a cancellation closure and its flag).
const maxRetrieveAllocs = 21

// TestCoordinatorRetrieveAllocs pins the fleet query's allocations, so
// a per-attempt context or per-exchange closure cannot quietly return.
func TestCoordinatorRetrieveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 38, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	var transports [][]Transport
	for i, sh := range shards {
		svc, err := rpc.NewShardService(sh, i, len(shards), retrieval.Options{}, 1)
		if err != nil {
			t.Fatalf("shard service %d: %v", i, err)
		}
		srv := rpc.NewServer(svc, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		transports = append(transports, []Transport{rpc.NewClient(ln.Addr().String(), time.Second, 2)})
	}
	c, err := New(transports, retrieval.Options{TopK: 10}, Options{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(c.Close)

	// hmmmd hands the coordinator its query deadline as a value.
	view := c.WithOptions(retrieval.Options{TopK: 10, Deadline: time.Now().Add(time.Minute)})
	ctx := context.Background()
	q := retrievaltest.Queries(m)[0]
	run := func() {
		res, err := view.RetrieveContext(ctx, q)
		if err != nil || res.Cost.Truncated {
			t.Fatalf("fleet query: err %v, cost %+v", err, res.Cost)
		}
	}
	run() // dial both shards and warm their engines
	if got := testing.AllocsPerRun(200, run); got > maxRetrieveAllocs {
		t.Errorf("Coordinator.RetrieveContext allocates %.1f times per query, ceiling %d (measured with go1.24.0, running %s)",
			got, maxRetrieveAllocs, runtime.Version())
	} else {
		t.Logf("Coordinator.RetrieveContext allocates %.1f times per query (ceiling %d)", got, maxRetrieveAllocs)
	}
}
