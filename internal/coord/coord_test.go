package coord

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// localTransport is the in-process loopback: it calls the ShardService
// directly, which honors the request budget itself, as behind
// rpc.Server, and ranks into resp.Rank as an rpc.Client decodes into
// it. The budget ends before the attempt deadline, so the deadline
// itself needs no watching.
type localTransport struct {
	svc  *rpc.ShardService
	name string
}

func (t *localTransport) RetrieveBy(ctx context.Context, _ time.Time, budget time.Duration, req *rpc.RetrieveRequest, resp *rpc.RetrieveResponse) error {
	r := *req
	r.BudgetNS = int64(budget)
	return t.svc.RetrieveInto(ctx, &r, resp)
}

func (t *localTransport) Status(ctx context.Context) (*rpc.StatusResponse, error) {
	st := t.svc.Status()
	return &st, nil
}

func (t *localTransport) Addr() string { return t.name }
func (t *localTransport) Close()       {}

// flakyTransport wraps a Transport with injectable failure and delay.
type flakyTransport struct {
	Transport
	fail  atomic.Bool  // every Retrieve fails with a transient error
	delay atomic.Int64 // added latency (ns), honoring ctx and the deadline
	calls atomic.Int64
	resp  atomic.Pointer[rpc.RetrieveResponse] // the last call's response
	// stale makes every odd-numbered call answer as the generation
	// before: a query's first scatter finds the shard stale, and its
	// re-query round finds it current.
	stale atomic.Bool
}

// RetrieveBy delays like a slow network path. A delay that runs past the
// attempt deadline ends there with the i/o timeout an rpc connection
// reports; as in rpc.Client, the deadline governs only when it comes
// before ctx's own.
func (t *flakyTransport) RetrieveBy(ctx context.Context, deadline time.Time, budget time.Duration, req *rpc.RetrieveRequest, resp *rpc.RetrieveResponse) error {
	n := t.calls.Add(1)
	t.resp.Store(resp)
	if d := time.Duration(t.delay.Load()); d > 0 {
		capped := false
		if cd, ok := ctx.Deadline(); (!ok || deadline.Before(cd)) && time.Until(deadline) < d {
			d, capped = time.Until(deadline), true
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		if capped {
			return os.ErrDeadlineExceeded
		}
	}
	if t.fail.Load() {
		return io.ErrUnexpectedEOF
	}
	err := t.Transport.RetrieveBy(ctx, deadline, budget, req, resp)
	if err == nil && t.stale.Load() && n%2 == 1 {
		resp.Generation--
	}
	return err
}

// services returns one ShardService per shard, all at generation gen.
func services(t *testing.T, shards []*shard.Shard, gen uint64) []*rpc.ShardService {
	t.Helper()
	out := make([]*rpc.ShardService, len(shards))
	for i, sh := range shards {
		svc, err := rpc.NewShardService(sh, i, len(shards), retrieval.Options{}, gen)
		if err != nil {
			t.Fatalf("shard service %d: %v", i, err)
		}
		out[i] = svc
	}
	return out
}

// loopbackCoordinator builds a coordinator over in-process transports,
// one replica per shard, with fast test timings.
func loopbackCoordinator(t *testing.T, svcs []*rpc.ShardService, baseOpts retrieval.Options, copts Options) (*Coordinator, []*flakyTransport) {
	t.Helper()
	transports := make([][]Transport, len(svcs))
	flaky := make([]*flakyTransport, len(svcs))
	for i, svc := range svcs {
		ft := &flakyTransport{Transport: &localTransport{svc: svc, name: fmt.Sprintf("local-%d", i)}}
		flaky[i] = ft
		transports[i] = []Transport{ft}
	}
	c, err := New(transports, baseOpts, copts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return c, flaky
}

// fastOptions keeps test retries/backoffs in the milliseconds.
func fastOptions(met *Metrics) Options {
	return Options{
		RetryBase:      time.Millisecond,
		RetryMax:       5 * time.Millisecond,
		AttemptTimeout: time.Second,
		EjectBackoff:   20 * time.Millisecond,
		Metrics:        met,
	}
}

// TestCoordinatorBitIdentical is the tentpole differential: for
// K∈{1,2,3,7}, with every shard healthy, the coordinated ranking must
// be bit-identical — matches, scores, tie-breaks, and cost — to the
// in-process shard.Group over the same split.
func TestCoordinatorBitIdentical(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 21, Videos: 9, MaxShots: 10})
	for _, k := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			shards, err := shard.Split(m, k)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			svcs := services(t, shards, 1)
			c, _ := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(nil))
			group, err := shard.NewGroup(m, k, retrieval.Options{}, shard.GroupOptions{})
			if err != nil {
				t.Fatalf("group: %v", err)
			}
			for qi, q := range retrievaltest.Queries(m) {
				want, err := group.Retrieve(q)
				if err != nil {
					t.Fatalf("query %d: group: %v", qi, err)
				}
				got, err := c.Retrieve(q)
				if err != nil {
					t.Fatalf("query %d: coord: %v", qi, err)
				}
				label := fmt.Sprintf("query %d", qi)
				retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
				if got.Cost != want.Cost {
					t.Fatalf("%s: cost = %+v, want %+v", label, got.Cost, want.Cost)
				}
			}

			// The WithOptions view must stay exact under different
			// result-affecting options.
			opts := retrieval.Options{TopK: 3, Beam: 2}
			q := retrievaltest.Queries(m)[2]
			want, err := group.WithOptions(opts).Retrieve(q)
			if err != nil {
				t.Fatalf("group with options: %v", err)
			}
			got, err := c.WithOptions(opts).Retrieve(q)
			if err != nil {
				t.Fatalf("coord with options: %v", err)
			}
			retrievaltest.RequireSameMatches(t, "with-options", want.Matches, got.Matches)
		})
	}
}

// TestScatterOverlapsNetworkWaits pins the fan-out rule: the scatter is
// I/O-bound, so every shard's round trip is in flight at once even when
// shards outnumber GOMAXPROCS. Seven shards that each take 20 ms behind
// a one-core coordinator answer in about one transport latency, not
// seven (a GOMAXPROCS-sized worker pool ran them back to back, and
// started the later shards' retry and hedge clocks late).
func TestScatterOverlapsNetworkWaits(t *testing.T) {
	const k, latency = 7, 20 * time.Millisecond
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 36, Videos: 14, MaxShots: 10})
	shards, err := shard.Split(m, k)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(shards) != k {
		t.Fatalf("got %d shards, want %d", len(shards), k)
	}
	c, flaky := loopbackCoordinator(t, services(t, shards, 1), retrieval.Options{}, fastOptions(nil))
	eng, err := retrieval.NewEngine(m, retrieval.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	q := retrievaltest.Queries(m)[0]
	want, err := eng.Retrieve(q)
	if err != nil {
		t.Fatalf("unsharded: %v", err)
	}
	if _, err := c.Retrieve(q); err != nil { // warm the shard engines
		t.Fatalf("warm-up: %v", err)
	}
	for _, ft := range flaky {
		ft.delay.Store(int64(latency))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	got, err := c.RetrieveContext(context.Background(), q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("coord: %v", err)
	}
	if elapsed >= 2*latency {
		t.Fatalf("%d shards at %v each took %v: the scatter serialised its network waits", k, latency, elapsed)
	}
	retrievaltest.RequireSameMatches(t, "k=7 on one core", want.Matches, got.Matches)
	if got.Cost.Truncated || got.Cost.DegradedShards != 0 {
		t.Fatalf("healthy scatter degraded: %+v", got.Cost)
	}
}

// TestDegradedShardDown pins graceful degradation: a shard that fails
// past the retry budget is dropped, the query returns the committed
// partial with Truncated + DegradedShards — never an error — and the
// hmmm_coord_degraded_total accounting is correct.
func TestDegradedShardDown(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 22, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	svcs := services(t, shards, 1)
	c, flaky := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(met))
	flaky[1].fail.Store(true)

	q := retrievaltest.Queries(m)[0]
	res, err := c.Retrieve(q)
	if err != nil {
		t.Fatalf("degraded query returned error: %v", err)
	}
	if !res.Cost.Truncated {
		t.Fatal("degraded result must set Cost.Truncated")
	}
	if res.Cost.DegradedShards != 1 {
		t.Fatalf("DegradedShards = %d, want 1", res.Cost.DegradedShards)
	}
	// The surviving shard's ranking must still be the exact committed
	// partial: shard 0's own matches.
	eng, err := retrieval.NewEngine(shards[0].Model, retrieval.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := eng.Retrieve(q)
	if err != nil {
		t.Fatalf("shard 0 local: %v", err)
	}
	retrievaltest.Lift(want.Matches, shards[0].Offset)
	retrievaltest.RequireSameMatches(t, "partial", retrieval.MergeRanked(want.Matches, 0), res.Matches)

	if met.Degraded.Value() != 1 {
		t.Fatalf("hmmm_coord_degraded_total = %d, want 1", met.Degraded.Value())
	}
	if met.DegradedShards.Value() != 1 {
		t.Fatalf("degraded shards counter = %d, want 1", met.DegradedShards.Value())
	}
	if met.Retries.Value() == 0 {
		t.Fatal("expected retries before degrading")
	}

	// All shards down: still no error — an empty committed ranking.
	flaky[0].fail.Store(true)
	res, err = c.Retrieve(q)
	if err != nil {
		t.Fatalf("all-down query returned error: %v", err)
	}
	if len(res.Matches) != 0 || res.Cost.DegradedShards != 2 || !res.Cost.Truncated {
		t.Fatalf("all-down result = %d matches, cost %+v", len(res.Matches), res.Cost)
	}
}

// TestEjectionAndReadmission pins the passive health gate: consecutive
// transient errors eject the endpoint, a later query after the backoff
// half-opens a probe, and a successful probe readmits.
func TestEjectionAndReadmission(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 23})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	svcs := services(t, shards, 1)
	c, flaky := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(met))

	q := retrievaltest.Queries(m)[0]
	flaky[0].fail.Store(true)
	if _, err := c.Retrieve(q); err != nil {
		t.Fatalf("query: %v", err)
	}
	if met.Ejections.Value() != 1 {
		t.Fatalf("ejections = %d, want 1 (3 consecutive transient errors)", met.Ejections.Value())
	}
	st := c.Stats()
	if st.Endpoints[0].State != stateEjected {
		t.Fatalf("endpoint state = %q, want ejected", st.Endpoints[0].State)
	}

	// While ejected, queries fail fast without touching the endpoint.
	calls := flaky[0].calls.Load()
	if _, err := c.Retrieve(q); err != nil {
		t.Fatalf("query during ejection: %v", err)
	}
	if flaky[0].calls.Load() != calls {
		t.Fatal("ejected endpoint still received requests")
	}

	// Heal, wait out the backoff: the next query's half-open probe
	// readmits the endpoint and serves the full result.
	flaky[0].fail.Store(false)
	time.Sleep(25 * time.Millisecond)
	res, err := c.Retrieve(q)
	if err != nil {
		t.Fatalf("query after heal: %v", err)
	}
	if res.Cost.DegradedShards != 0 || res.Cost.Truncated {
		t.Fatalf("healed result still degraded: %+v", res.Cost)
	}
	if met.Readmissions.Value() != 1 {
		t.Fatalf("readmissions = %d, want 1", met.Readmissions.Value())
	}
	if got := c.Stats().Endpoints[0].State; got != stateHealthy {
		t.Fatalf("endpoint state after readmission = %q", got)
	}
}

// TestHedging pins the p95-hedge path: with a slow primary replica and
// a fast secondary, the hedge fires after the clamped delay and its
// response wins.
func TestHedging(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 24})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svc := services(t, shards, 1)[0]
	reg := obs.NewRegistry()
	met := NewMetrics(reg)

	slow := &flakyTransport{Transport: &localTransport{svc: svc, name: "slow"}}
	slow.delay.Store(int64(300 * time.Millisecond))
	fast := &flakyTransport{Transport: &localTransport{svc: svc, name: "fast"}}
	c, err := New([][]Transport{{slow, fast}}, retrieval.Options{}, Options{
		HedgeMax:       5 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Metrics:        met,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	q := retrievaltest.Queries(m)[0]
	start := time.Now()
	res, err := c.Retrieve(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("hedge did not cut the slow primary: took %v", elapsed)
	}
	if res.Cost.Truncated || len(res.Matches) == 0 {
		t.Fatalf("hedged result degraded: %+v", res.Cost)
	}
	if met.Hedges.Value() != 1 || met.HedgeWins.Value() != 1 {
		t.Fatalf("hedges = %d, wins = %d; want 1, 1", met.Hedges.Value(), met.HedgeWins.Value())
	}
	// An abandoned hedge can still be running after its attempt returns,
	// so it decodes into a response of its own, never the shard's.
	if primary, hedge := slow.resp.Load(), fast.resp.Load(); primary == nil || primary == hedge {
		t.Fatalf("the hedge decoded into the primary's response %p (its own: %p)", primary, hedge)
	}
}

// TestGenerationConsistency pins the mixed-generation rules: a shard
// that catches up within the re-query rounds merges cleanly; one stuck
// on an old model is dropped as degraded with a gen-conflict count,
// never merged.
func TestGenerationConsistency(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 25, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(shards))
	}
	q := retrievaltest.Queries(m)[0]

	t.Run("catches-up", func(t *testing.T) {
		reg := obs.NewRegistry()
		met := NewMetrics(reg)
		svcs := services(t, shards, 2)
		svcs[0].SetGeneration(1) // lags one generation behind
		c, _ := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(met))
		// The rollout lands after the first scatter: the re-query sees
		// the new generation and the merge stays complete.
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(2 * time.Millisecond)
			svcs[0].SetGeneration(2)
		}()
		res, err := c.Retrieve(q)
		<-done
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		// Whether the shard caught up mid-query or was dropped depends
		// on timing; what must never happen is a silent merge of mixed
		// generations: either complete and exact, or degraded.
		if res.Cost.DegradedShards == 0 {
			group, err := shard.NewGroup(m, 2, retrieval.Options{}, shard.GroupOptions{})
			if err != nil {
				t.Fatalf("group: %v", err)
			}
			want, err := group.Retrieve(q)
			if err != nil {
				t.Fatalf("group query: %v", err)
			}
			retrievaltest.RequireSameMatches(t, "caught-up", want.Matches, res.Matches)
		} else if !res.Cost.Truncated {
			t.Fatal("degraded result must set Truncated")
		}
	})

	t.Run("stuck-stale", func(t *testing.T) {
		reg := obs.NewRegistry()
		met := NewMetrics(reg)
		svcs := services(t, shards, 2)
		svcs[0].SetGeneration(1) // permanently stale
		c, _ := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(met))
		res, err := c.Retrieve(q)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if res.Cost.DegradedShards != 1 || !res.Cost.Truncated {
			t.Fatalf("stale shard not degraded: %+v", res.Cost)
		}
		if met.GenConflicts.Value() == 0 {
			t.Fatal("gen conflict not counted")
		}
		// The merged ranking is exactly the up-to-date shard's.
		eng, err := retrieval.NewEngine(shards[1].Model, retrieval.Options{})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		want, err := eng.Retrieve(q)
		if err != nil {
			t.Fatalf("shard 1 local: %v", err)
		}
		retrievaltest.Lift(want.Matches, shards[1].Offset)
		retrievaltest.RequireSameMatches(t, "fresh-only", retrieval.MergeRanked(want.Matches, 0), res.Matches)
	})
}

// TestParentDeadlineTruncates pins that a query-level deadline yields a
// truncated partial, not an error and not degraded-shard accounting.
func TestParentDeadlineTruncates(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 26})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	svcs := services(t, shards, 1)
	c, flaky := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(met))
	flaky[0].delay.Store(int64(time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := c.RetrieveContext(ctx, retrievaltest.Queries(m)[0])
	if err != nil {
		t.Fatalf("deadline query returned error: %v", err)
	}
	if !res.Cost.Truncated {
		t.Fatal("deadline must truncate")
	}
	if res.Cost.DegradedShards != 0 {
		t.Fatalf("parent deadline counted as degraded: %+v", res.Cost)
	}
	if met.Degraded.Value() != 0 {
		t.Fatal("parent deadline must not increment hmmm_coord_degraded_total")
	}
}

// TestOptionsDeadlineTruncates is TestParentDeadlineTruncates with the
// query deadline as the view's Options.Deadline, as hmmmd passes it, and
// the context carrying none: while one of two shards hangs, each query
// returns the live shard's ranking as a truncated partial soon after the
// deadline — long before the attempt cap — without retrying the hung
// shard, counting it as degraded, or charging its health: a run of
// deadline expiries does not eject it.
func TestOptionsDeadlineTruncates(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 26})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	copts := fastOptions(met)
	copts.AttemptTimeout = 10 * time.Second
	c, flaky := loopbackCoordinator(t, services(t, shards, 1), retrieval.Options{}, copts)
	flaky[1].delay.Store(int64(5 * time.Second))

	eng, err := retrieval.NewEngine(shards[0].Model, retrieval.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	q := retrievaltest.Queries(m)[0]
	want, err := eng.Retrieve(q)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	retrievaltest.Lift(want.Matches, shards[0].Offset)
	want.Matches = retrieval.MergeRanked(want.Matches, 0)

	const budget = 100 * time.Millisecond
	for i := 0; i < ejectThreshold; i++ {
		start := time.Now()
		res, err := c.WithOptions(retrieval.Options{Deadline: start.Add(budget)}).RetrieveContext(context.Background(), q)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("deadline query returned error: %v", err)
		}
		if !res.Cost.Truncated || res.Cost.DegradedShards != 0 {
			t.Fatalf("cost %+v, want a truncation without degraded shards", res.Cost)
		}
		if elapsed < budget || elapsed > budget+time.Second {
			t.Fatalf("query returned after %v, want soon after its %v deadline", elapsed, budget)
		}
		retrievaltest.RequireSameMatches(t, "deadline-partial", want.Matches, res.Matches)
	}
	if got := met.Degraded.Value(); got != 0 {
		t.Fatalf("hmmm_coord_degraded_total = %d, want 0", got)
	}
	if got := met.Retries.Value(); got != 0 {
		t.Fatalf("hmmm_coord_retries_total = %d, want 0: a query deadline is not retried", got)
	}
	if got := met.Ejections.Value(); got != 0 {
		t.Fatalf("hmmm_coord_ejections_total = %d, want 0: a query deadline is not a shard failure", got)
	}
	if got := flaky[1].calls.Load(); got != ejectThreshold {
		t.Fatalf("hung shard asked %d times over %d queries, want once each", got, ejectThreshold)
	}
}

// TestBackoffEndsAtDeadline: a retry backoff longer than the time left
// ends at the query's Options.Deadline, and no attempt starts past it:
// the failing shard is asked once, the retry the deadline ended is not
// counted, and the query is a truncation, not a degraded answer.
func TestBackoffEndsAtDeadline(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 26})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	met := NewMetrics(obs.NewRegistry())
	copts := fastOptions(met)
	copts.RetryBase, copts.RetryMax = 4*time.Second, 4*time.Second
	c, flaky := loopbackCoordinator(t, services(t, shards, 1), retrieval.Options{}, copts)
	flaky[1].fail.Store(true)

	const budget = 100 * time.Millisecond
	start := time.Now()
	res, err := c.WithOptions(retrieval.Options{Deadline: start.Add(budget)}).
		RetrieveContext(context.Background(), retrievaltest.Queries(m)[0])
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline query returned error: %v", err)
	}
	if !res.Cost.Truncated || res.Cost.DegradedShards != 0 {
		t.Fatalf("cost %+v, want a truncation without degraded shards", res.Cost)
	}
	if elapsed > budget+time.Second {
		t.Fatalf("query returned after %v: the 2-4s backoff outlived its %v deadline", elapsed, budget)
	}
	if got := flaky[1].calls.Load(); got != 1 {
		t.Fatalf("failing shard asked %d times, want 1", got)
	}
	if got := met.Retries.Value(); got != 0 {
		t.Fatalf("hmmm_coord_retries_total = %d, want 0: the deadline ended the retry before its request", got)
	}
	if got := met.ShardRequests.Value(); got != 2 {
		t.Fatalf("hmmm_coord_shard_requests_total = %d, want 2: one per shard", got)
	}
}

// TestPickOtherRoundRobinDistribution pins the hedge-target selection
// policy: pickOther rotates the replica cursor instead of always
// returning the first healthy alternative, so hedge traffic spreads
// across the replica set. With four replicas (primary = 0) the cursor
// arithmetic is deterministic: start∈{1,2,3} lands on that replica,
// start=0 skips the primary to replica 1 — so over 400 calls replica 1
// gets 200 and replicas 2 and 3 get 100 each. The first-healthy policy
// this replaces would have produced 400/0/0.
func TestPickOtherRoundRobinDistribution(t *testing.T) {
	eps := []*endpoint{newEndpoint(nil), newEndpoint(nil), newEndpoint(nil), newEndpoint(nil)}
	set := &shardSet{endpoints: eps}
	now := time.Now()
	primary := eps[0]

	counts := make(map[*endpoint]int)
	for i := 0; i < 400; i++ {
		other := set.pickOther(now, primary)
		if other == nil {
			t.Fatalf("call %d: no alternative found in a fully healthy set", i)
		}
		if other == primary {
			t.Fatalf("call %d: pickOther returned the primary", i)
		}
		counts[other]++
	}
	want := map[*endpoint]int{eps[1]: 200, eps[2]: 100, eps[3]: 100}
	for i, ep := range eps[1:] {
		if counts[ep] != want[ep] {
			t.Errorf("replica %d picked %d times, want %d", i+1, counts[ep], want[ep])
		}
	}

	// Ejected replicas are skipped; with every alternative ejected the
	// hedge has nowhere to go.
	for _, ep := range eps[1:] {
		for i := 0; i < 3; i++ {
			ep.failure(now, 3, time.Hour, time.Hour)
		}
	}
	if other := set.pickOther(now, primary); other != nil {
		t.Errorf("pickOther returned an ejected replica")
	}
	if readmitted := eps[2].success(1); !readmitted {
		t.Fatal("success did not readmit the ejected replica")
	}
	for i := 0; i < 8; i++ {
		if other := set.pickOther(now, primary); other != eps[2] {
			t.Fatalf("call %d: picked %v, want the only healthy alternative", i, other)
		}
	}
}

func TestParseShards(t *testing.T) {
	got, err := ParseShards("a:1; b:1 , b:2;c:1")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := [][]string{{"a:1"}, {"b:1", "b:2"}, {"c:1"}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("shard %d: got %v", i, got[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("shard %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
	if _, err := ParseShards(" ; "); err == nil {
		t.Fatal("empty shard spec must fail")
	}
}

func TestWaitReadyDetectsMisconfiguration(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 27, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svcs := services(t, shards, 1)
	// Swap the transports: shard 0's address actually serves shard 1.
	transports := [][]Transport{
		{&localTransport{svc: svcs[1], name: "swapped-0"}},
		{&localTransport{svc: svcs[0], name: "swapped-1"}},
	}
	c, err := New(transports, retrieval.Options{}, fastOptions(nil))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.WaitReady(ctx); err == nil || !strings.Contains(err.Error(), "serves shard") {
		t.Fatalf("WaitReady on swapped shards: err = %v, want index mismatch", err)
	}

	// A mis-wired SECOND replica must also fail fast: identity is
	// verified for every endpoint that answers Status, not just the
	// first READY one per shard — otherwise the bad replica surfaces
	// only when failover or hedging routes to it mid-query.
	bad, err := New([][]Transport{
		{&localTransport{svc: svcs[0], name: "r0-ok"}, &localTransport{svc: svcs[1], name: "r0-miswired"}},
		{&localTransport{svc: svcs[1], name: "r1-ok"}},
	}, retrieval.Options{}, fastOptions(nil))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := bad.WaitReady(ctx); err == nil || !strings.Contains(err.Error(), "serves shard") {
		t.Fatalf("WaitReady on mis-wired second replica: err = %v, want index mismatch", err)
	}

	// Correctly wired, WaitReady returns promptly.
	ok, err := New([][]Transport{
		{&localTransport{svc: svcs[0], name: "ok-0"}},
		{&localTransport{svc: svcs[1], name: "ok-1"}},
	}, retrieval.Options{}, fastOptions(nil))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := ok.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
}

// TestAbandonedProbeResolves pins the stuck-probe fix: a half-open
// probe whose request is cancelled by the parent context must re-eject
// the endpoint — never wedge it in "probing", where it would be
// unroutable forever — and a later clean probe must still readmit it.
func TestAbandonedProbeResolves(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 28})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	svcs := services(t, shards, 1)
	c, flaky := loopbackCoordinator(t, svcs, retrieval.Options{}, fastOptions(met))
	q := retrievaltest.Queries(m)[0]

	// Eject the only replica.
	flaky[0].fail.Store(true)
	if _, err := c.Retrieve(q); err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := c.Stats().Endpoints[0].State; got != stateEjected {
		t.Fatalf("endpoint state = %q, want ejected", got)
	}

	// Heal the transport but keep it slow; after the backoff the next
	// query half-opens a probe that the parent deadline then cancels.
	flaky[0].fail.Store(false)
	flaky[0].delay.Store(int64(300 * time.Millisecond))
	time.Sleep(25 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	res, err := c.RetrieveContext(ctx, q)
	cancel()
	if err != nil {
		t.Fatalf("cancelled-probe query: %v", err)
	}
	if !res.Cost.Truncated {
		t.Fatal("parent deadline must truncate")
	}
	// The abandoned probe must have resolved back to ejected.
	if got := c.Stats().Endpoints[0].State; got != stateEjected {
		t.Fatalf("endpoint state after cancelled probe = %q, want ejected (stuck probe)", got)
	}

	// A clean probe after the (doubled) backoff readmits the endpoint.
	flaky[0].delay.Store(0)
	time.Sleep(60 * time.Millisecond)
	res, err = c.Retrieve(q)
	if err != nil {
		t.Fatalf("query after heal: %v", err)
	}
	if res.Cost.Truncated || res.Cost.DegradedShards != 0 {
		t.Fatalf("healed result still degraded: %+v", res.Cost)
	}
	if got := c.Stats().Endpoints[0].State; got != stateHealthy {
		t.Fatalf("endpoint state after readmission = %q, want healthy", got)
	}
}

// TestHedgeAbandonedProbeResolves pins the other stuck-probe path: a
// hedge sent to a probing replica is abandoned when the primary wins,
// and the drained outcome must re-eject the probe instead of leaving it
// in "probing" forever.
func TestHedgeAbandonedProbeResolves(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 29})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svc := services(t, shards, 1)[0]
	reg := obs.NewRegistry()
	met := NewMetrics(reg)

	primary := &flakyTransport{Transport: &localTransport{svc: svc, name: "primary"}}
	primary.delay.Store(int64(50 * time.Millisecond))
	secondary := &flakyTransport{Transport: &localTransport{svc: svc, name: "secondary"}}
	secondary.delay.Store(int64(time.Second))
	c, err := New([][]Transport{{primary, secondary}}, retrieval.Options{}, Options{
		HedgeMax:       5 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		EjectBackoff:   20 * time.Millisecond,
		Metrics:        met,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	// Park the secondary in ejected with an elapsed backoff: the hedge
	// will half-open its probe.
	ep := c.sets[0].endpoints[1]
	ep.mu.Lock()
	ep.state = stateEjected
	ep.backoff = 20 * time.Millisecond
	ep.ejectedUntil = time.Now().Add(-time.Millisecond)
	ep.mu.Unlock()

	res, err := c.Retrieve(retrievaltest.Queries(m)[0])
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Cost.Truncated || len(res.Matches) == 0 {
		t.Fatalf("primary win degraded: %+v", res.Cost)
	}
	if met.Hedges.Value() != 1 {
		t.Fatalf("hedges = %d, want 1 (test did not exercise the hedge path)", met.Hedges.Value())
	}
	// The abandoned hedge probe resolves asynchronously (drain goroutine
	// after the shared cancel): it must land back in ejected, not wedge
	// in probing.
	deadline := time.Now().Add(2 * time.Second)
	for {
		state, _, _ := ep.snapshotState()
		if state == stateEjected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned hedge probe state = %q, want ejected", state)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardIdentityStampRejected pins the per-response identity check:
// a mis-wired replica that escaped the startup sweep (WaitReady skipped
// or the replica down at boot) must degrade its shard — wrong-partition
// matches are never silently merged into the ranking.
func TestShardIdentityStampRejected(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 30, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svcs := services(t, shards, 1)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	// Shard 1's only replica actually serves shard 0: same model, wrong
	// partition — exactly the mis-wiring WaitReady would catch, except
	// no WaitReady ran.
	transports := [][]Transport{
		{&localTransport{svc: svcs[0], name: "ok-0"}},
		{&localTransport{svc: svcs[0], name: "miswired-1"}},
	}
	c, err := New(transports, retrieval.Options{}, fastOptions(met))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	q := retrievaltest.Queries(m)[0]
	res, err := c.Retrieve(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Cost.DegradedShards != 1 || !res.Cost.Truncated {
		t.Fatalf("mis-wired shard not degraded: %+v", res.Cost)
	}
	// The merged ranking is exactly shard 0's committed partial — the
	// duplicate wrong-identity answer contributed nothing.
	eng, err := retrieval.NewEngine(shards[0].Model, retrieval.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := eng.Retrieve(q)
	if err != nil {
		t.Fatalf("shard 0 local: %v", err)
	}
	retrievaltest.Lift(want.Matches, shards[0].Offset)
	retrievaltest.RequireSameMatches(t, "identity", retrieval.MergeRanked(want.Matches, 0), res.Matches)
}

// TestCoarseMismatchSurfaces: a coordinator sending a coarse budget to
// shard servers started without the coarse index gets an error naming
// both flags from RetrieveContext, through Dial over real loopback rpc
// servers — never an empty, degraded ranking that hides why. A
// coordinator sending a budget of 0 to servers with the index gets exact
// search, ranking like an exact group over the same shards, and a
// matching fleet answers normally.
func TestCoarseMismatchSurfaces(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 31, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	exact, err := shard.NewGroup(m, len(shards), retrieval.Options{}, shard.GroupOptions{})
	if err != nil {
		t.Fatalf("group: %v", err)
	}
	q := retrievaltest.Queries(m)[0]
	want, err := exact.Retrieve(q)
	if err != nil {
		t.Fatalf("exact group: %v", err)
	}
	for _, tc := range []struct{ server, coord int }{{0, 16}, {16, 0}, {16, 8}} {
		var addrs []string
		for i, sh := range shards {
			svc, err := rpc.NewShardService(sh, i, len(shards), retrieval.Options{CoarseCandidates: tc.server}, 1)
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
			addrs = append(addrs, ln.Addr().String())
		}
		c, err := Dial(strings.Join(addrs, ";"), time.Second, fastOptions(nil), retrieval.Options{CoarseCandidates: tc.coord})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(c.Close)
		res, err := c.RetrieveContext(context.Background(), q)
		if tc.server == 0 && tc.coord > 0 {
			if err == nil || !strings.Contains(err.Error(), "hmmmd -coarse-candidates") ||
				!strings.Contains(err.Error(), "hmmm-shardd -coarse-candidates") {
				t.Errorf("server %d, coordinator %d: err = %v, want the refusal naming both flags", tc.server, tc.coord, err)
			}
			continue
		}
		if err != nil || res.Cost.DegradedShards != 0 {
			t.Errorf("server %d, coordinator %d: err = %v, degraded = %+v", tc.server, tc.coord, err, res)
			continue
		}
		if tc.coord == 0 {
			retrievaltest.RequireSameMatches(t, fmt.Sprintf("server %d, coordinator 0", tc.server), want.Matches, res.Matches)
		}
	}
}

// TestMain verifies the package leaves no coordinator or rpc goroutine
// behind — hedges, retries, and chaos teardown must all join.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if !suspectGoroutines() {
				os.Exit(0)
			}
			time.Sleep(20 * time.Millisecond)
		}
		println("coord: goroutine leak after tests:")
		buf := make([]byte, 1<<20)
		println(string(buf[:runtime.Stack(buf, true)]))
		os.Exit(1)
	}
	os.Exit(code)
}

func suspectGoroutines() bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "internal/coord.") || strings.Contains(g, "internal/rpc.") {
			if strings.Contains(g, "coord.TestMain") || strings.Contains(g, "testing.") {
				continue
			}
			return true
		}
	}
	return false
}
