package coord

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// maxRetrieveAllocs is the allocation ceiling of one warm two-shard
// Coordinator.RetrieveInto into a kept RankBuf over loopback rpc.Server
// shards, as hmmmd runs it under a query deadline. It counts the whole
// process: the coordinator, both rpc clients, and both shard servers'
// decode, retrieval and encode. Measured with go1.24.0 on linux/amd64:
// 5 — the one shard goroutine's closure and each exchange's two-part
// cancellation watcher — plus 5% slack, rounded up (19 when every
// exchange decoded into fresh storage and every query built its request,
// outcomes and WaitGroup; 44 when every exchange also copied the request
// to set its budget and boxed its response, and every shard server built
// a new request, response and ranking per request; 68 when each shard
// server also built a timer context for the budget and each step of the
// Events query was copied on every validation; 87 when every exchange
// also allocated a timeout context, a cancellation closure and its
// flag).
const maxRetrieveAllocs = 6

// maxPerShardAllocs bounds what one more shard adds to a warm query: its
// goroutine's closure and its exchange's cancellation watcher (3).
const maxPerShardAllocs = 3

// loopbackFleet starts k rpc.Server shards of m on loopback listeners
// and returns a coordinator over them.
func loopbackFleet(t *testing.T, m *hmmm.Model, k int) *Coordinator {
	t.Helper()
	shards, err := shard.Split(m, k)
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
	return c
}

// queryAllocs measures one warm RetrieveInto of q on c into one kept
// RankBuf, under a query deadline as hmmmd hands it over.
func queryAllocs(t *testing.T, c *Coordinator, q retrieval.Query) float64 {
	t.Helper()
	view := c.WithOptions(retrieval.Options{TopK: 10, Deadline: time.Now().Add(time.Minute)})
	ctx := context.Background()
	var buf retrieval.RankBuf
	run := func() {
		res, err := view.RetrieveInto(ctx, q, &buf)
		if err != nil || res.Cost.Truncated || len(res.Matches) == 0 {
			t.Fatalf("fleet query: err %v, %d matches, cost %+v", err, len(res.Matches), res.Cost)
		}
	}
	run() // dial every shard and warm the engines and the buffer
	return testing.AllocsPerRun(200, run)
}

// TestCoordinatorRetrieveAllocs pins the fleet query's allocations, so
// a per-attempt context, a per-exchange closure or a per-shard decode
// cannot quietly return, and sweeps 2, 3 and 4 loopback shards to pin
// what each further shard costs.
func TestCoordinatorRetrieveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 38, Videos: 6})
	q := retrievaltest.Queries(m)[0]
	counts := map[int]float64{}
	for _, k := range []int{2, 3, 4} {
		counts[k] = queryAllocs(t, loopbackFleet(t, m, k), q)
		t.Logf("%d shards: Coordinator.RetrieveInto allocates %.1f times per query", k, counts[k])
	}
	if got := counts[2]; got > maxRetrieveAllocs {
		t.Errorf("two-shard Coordinator.RetrieveInto allocates %.1f times per query, ceiling %d (measured with go1.24.0, running %s)",
			got, maxRetrieveAllocs, runtime.Version())
	}
	for _, k := range []int{3, 4} {
		if slope := counts[k] - counts[k-1]; slope > maxPerShardAllocs {
			t.Errorf("shard %d adds %.1f allocations per query, ceiling %d: %s", k, slope, maxPerShardAllocs, fmt.Sprint(counts))
		}
	}
}
