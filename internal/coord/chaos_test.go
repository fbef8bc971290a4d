package coord

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/faultinject"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// chaosCluster is a real-TCP test cluster: one rpc.Server per shard,
// each behind a faultinject.NetProxy the coordinator dials, so tests
// can refuse, cut, delay, or blackhole each shard's network path.
type chaosCluster struct {
	shards  []*shard.Shard
	servers []*rpc.Server
	proxies []*faultinject.NetProxy
	coord   *Coordinator
	met     *Metrics
}

func startChaosCluster(t *testing.T, shards []*shard.Shard, copts Options) *chaosCluster {
	t.Helper()
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	copts.Metrics = met
	cl := &chaosCluster{shards: shards, met: met}
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
		proxy, err := faultinject.NewNetProxy(ln.Addr().String())
		if err != nil {
			t.Fatalf("proxy: %v", err)
		}
		cl.servers = append(cl.servers, srv)
		cl.proxies = append(cl.proxies, proxy)
		transports = append(transports, []Transport{rpc.NewClient(proxy.Addr(), time.Second, 2)})
	}
	c, err := New(transports, retrieval.Options{}, copts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	cl.coord = c
	t.Cleanup(func() {
		c.Close()
		for _, p := range cl.proxies {
			p.Close()
		}
		for _, s := range cl.servers {
			s.Close()
		}
	})
	return cl
}

func chaosOptions() Options {
	return Options{
		RetryBase:      2 * time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		AttemptTimeout: 250 * time.Millisecond,
		EjectBackoff:   30 * time.Millisecond,
	}
}

// requireCommitted asserts the chaos invariant: the query returns a
// committed (possibly partial) ranking — never an error — with the
// expected degradation accounting.
func requireCommitted(t *testing.T, res *retrieval.Result, err error, wantDegraded int) {
	t.Helper()
	if err != nil {
		t.Fatalf("chaos query returned error: %v", err)
	}
	if res.Cost.DegradedShards != wantDegraded {
		t.Fatalf("DegradedShards = %d, want %d (cost %+v)", res.Cost.DegradedShards, wantDegraded, res.Cost)
	}
	if wantDegraded > 0 && !res.Cost.Truncated {
		t.Fatal("degraded result must set Truncated")
	}
}

// TestChaosConnectionRefused pins recovery around a refused shard: the
// query degrades to the live shards' committed partial, and once the
// network heals the ejected endpoint is readmitted and results are full
// and exact again.
func TestChaosConnectionRefused(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 31, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	cl := startChaosCluster(t, shards, chaosOptions())
	q := retrievaltest.Queries(m)[0]

	group, err := shard.NewGroup(m, 2, retrieval.Options{}, shard.GroupOptions{})
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	want, err := group.Retrieve(q)
	if err != nil {
		t.Fatalf("group: %v", err)
	}

	// Healthy first: exact.
	res, err := cl.coord.Retrieve(q)
	requireCommitted(t, res, err, 0)
	retrievaltest.RequireSameMatches(t, "healthy", want.Matches, res.Matches)

	// Refuse shard 1: degraded committed partial.
	cl.proxies[1].Refuse(true)
	cl.proxies[1].CutNow() // kill the pooled connections too
	res, err = cl.coord.Retrieve(q)
	requireCommitted(t, res, err, 1)
	if cl.met.Degraded.Value() != 1 {
		t.Fatalf("hmmm_coord_degraded_total = %d, want 1", cl.met.Degraded.Value())
	}

	// Heal; wait out the ejection backoff; the half-open probe readmits
	// and results are exact again.
	cl.proxies[1].Refuse(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err = cl.coord.Retrieve(q)
		if err != nil {
			t.Fatalf("query after heal: %v", err)
		}
		if res.Cost.DegradedShards == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard never readmitted after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	retrievaltest.RequireSameMatches(t, "healed", want.Matches, res.Matches)
}

// TestChaosMidStreamCut pins retry-through-torn-frames: a one-shot cut
// mid-response is retried on a fresh connection and the query still
// returns the full exact ranking with no degradation.
func TestChaosMidStreamCut(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 32, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	cl := startChaosCluster(t, shards, chaosOptions())
	q := retrievaltest.Queries(m)[0]

	group, err := shard.NewGroup(m, 2, retrieval.Options{}, shard.GroupOptions{})
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	want, err := group.Retrieve(q)
	if err != nil {
		t.Fatalf("group: %v", err)
	}

	// Sever shard 0's response after 3 bytes — inside the length
	// prefix, so the client sees a torn frame.
	cl.proxies[0].CutAfter(3)
	res, err := cl.coord.Retrieve(q)
	requireCommitted(t, res, err, 0)
	retrievaltest.RequireSameMatches(t, "after-cut", want.Matches, res.Matches)
	if cl.met.Retries.Value() == 0 {
		t.Fatal("mid-stream cut should have cost at least one retry")
	}
}

// TestChaosLatencyInjection pins tolerance of a slow-but-alive path:
// injected latency under the attempt timeout leaves results exact and
// undegraded.
func TestChaosLatencyInjection(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 33, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	cl := startChaosCluster(t, shards, chaosOptions())
	q := retrievaltest.Queries(m)[0]

	group, err := shard.NewGroup(m, 2, retrieval.Options{}, shard.GroupOptions{})
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	want, err := group.Retrieve(q)
	if err != nil {
		t.Fatalf("group: %v", err)
	}

	cl.proxies[0].SetLatency(20*time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 3; i++ {
		res, err := cl.coord.Retrieve(q)
		requireCommitted(t, res, err, 0)
		retrievaltest.RequireSameMatches(t, fmt.Sprintf("latency-%d", i), want.Matches, res.Matches)
	}
}

// TestChaosBlackhole pins the worst case: a shard that accepts traffic
// and never responds. The attempt timeout converts the hang into a
// retryable failure, the query degrades to a committed partial, and
// nothing hangs or leaks (TestMain enforces the leak part).
func TestChaosBlackhole(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 34, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	copts := chaosOptions()
	copts.AttemptTimeout = 100 * time.Millisecond
	cl := startChaosCluster(t, shards, copts)
	q := retrievaltest.Queries(m)[0]

	cl.proxies[1].Blackhole(true)
	cl.proxies[1].CutNow() // sever pooled conns so new ones hit the blackhole
	start := time.Now()
	res, err := cl.coord.Retrieve(q)
	requireCommitted(t, res, err, 1)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("blackholed query took %v — attempt timeout not bounding the hang", elapsed)
	}
	if cl.met.Degraded.Value() != 1 {
		t.Fatalf("hmmm_coord_degraded_total = %d, want 1", cl.met.Degraded.Value())
	}

	// The live shard's ranking must still be its exact committed part.
	eng, err := retrieval.NewEngine(shards[0].Model, retrieval.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := eng.Retrieve(q)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	retrievaltest.Lift(want.Matches, shards[0].Offset)
	retrievaltest.RequireSameMatches(t, "blackhole-partial", retrieval.MergeRanked(want.Matches, 0), res.Matches)
}

// TestChaosDrainingServer pins rolling-restart behaviour: a draining
// shard refuses retrievals with a transient error; with no replica the
// query degrades rather than erroring, and status reports DRAINING.
func TestChaosDrainingServer(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 35, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	cl := startChaosCluster(t, shards, chaosOptions())
	q := retrievaltest.Queries(m)[0]

	cl.servers[1].Drain()
	res, err := cl.coord.Retrieve(q)
	requireCommitted(t, res, err, 1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	probe := rpc.NewClient(cl.proxies[1].Addr(), time.Second, 1)
	defer probe.Close()
	st, err := probe.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != rpc.StateDraining {
		t.Fatalf("state = %q, want DRAINING", st.State)
	}
}

// TestChaosAttemptCapRetriesThenDegrades pins the attempt cap under a
// query deadline that is far longer: a blackholed shard's exchange ends
// at the cap as errAttemptTimeout, the shard is retried, and the query
// returns the live shard's committed partial long before its own
// deadline.
func TestChaosAttemptCapRetriesThenDegrades(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 36, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	copts := chaosOptions()
	copts.AttemptTimeout = 50 * time.Millisecond
	cl := startChaosCluster(t, shards, copts)
	q := retrievaltest.Queries(m)[0]
	cl.proxies[1].Blackhole(true)
	cl.proxies[1].CutNow()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ep := cl.coord.sets[1].endpoints[0]
	if err := cl.coord.exchange(ctx, 1, ep, &rpc.RetrieveRequest{Query: q}, new(rpc.RetrieveResponse)); !errors.Is(err, errAttemptTimeout) {
		t.Fatalf("blackholed exchange: err = %v, want errAttemptTimeout", err)
	}

	before := cl.met.ShardRequests.Value()
	start := time.Now()
	res, err := cl.coord.RetrieveContext(ctx, q)
	requireCommitted(t, res, err, 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("capped attempts took %v of the query's 5s", elapsed)
	}
	// A retry is counted only when its request goes out: beyond each
	// shard's first request, every one sent is a retry. The probe
	// exchange above and the first two attempts are ejectThreshold
	// consecutive failures, so the third attempt usually finds the shard
	// ejected and sends nothing (unless its ejection backoff has already
	// run out and it half-opens).
	sent := cl.met.ShardRequests.Value() - before
	if got := cl.met.Retries.Value(); got < 1 || got != sent-2 {
		t.Fatalf("hmmm_coord_retries_total = %d with %d shard requests sent, want the %d beyond each shard's first (at least 1)", got, sent, sent-2)
	}
}

// TestChaosHedgeLoserClosed pins hedge cancellation over real sockets:
// a primary replica behind 300 ms of injected latency loses to the
// hedge, its exchange is abandoned at once, and its connection is
// closed rather than parked.
func TestChaosHedgeLoserClosed(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 37})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svc, err := rpc.NewShardService(shards[0], 0, 1, retrieval.Options{}, 1)
	if err != nil {
		t.Fatalf("shard service: %v", err)
	}
	srv := rpc.NewServer(svc, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	slow, err := faultinject.NewNetProxy(ln.Addr().String())
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer slow.Close()
	slow.SetLatency(300*time.Millisecond, 0)
	met := NewMetrics(obs.NewRegistry())
	c, err := New([][]Transport{{
		rpc.NewClient(slow.Addr(), time.Second, 2),
		rpc.NewClient(ln.Addr().String(), time.Second, 2),
	}}, retrieval.Options{}, Options{HedgeMax: 5 * time.Millisecond, AttemptTimeout: 2 * time.Second, Metrics: met})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()

	start := time.Now()
	res, err := c.Retrieve(retrievaltest.Queries(m)[0])
	requireCommitted(t, res, err, 0)
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("hedged query took %v: the losing exchange was not abandoned", elapsed)
	}
	if met.Hedges.Value() != 1 || met.HedgeWins.Value() != 1 {
		t.Fatalf("hedges = %d, wins = %d; want 1, 1", met.Hedges.Value(), met.HedgeWins.Value())
	}
	for deadline := time.Now().Add(3 * time.Second); slow.Conns() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the hedge loser's connection is still open (%d proxied): parked, not closed", slow.Conns())
		}
	}
}
