package coord

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// TestCoordinatorReuseAnswersLikeFresh ranks every corpus query, at
// alternating TopKs, into one RankBuf that every earlier query left
// dirty, and the same query into fresh storage: rankings and Cost must
// be equal. It does so on the paths where a shard's child buffer holds
// something other than this query's answer — a degraded shard (its
// buffer keeps an earlier query's ranking), a generation-stale shard
// (its buffer is decoded twice, stale first) and a hedge win (the
// answer stays in the hedge's own storage) — and checks that each path
// was taken.
func TestCoordinatorReuseAnswersLikeFresh(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 27, Videos: 8})
	queries := append(retrievaltest.Queries(m), retrievaltest.NegationQueries(m)...)
	topKs := []int{100, 2, 0, 7}

	// compare runs every query twice over, each into buf and into fresh
	// storage.
	compare := func(t *testing.T, c *Coordinator, buf *retrieval.RankBuf, check func(t *testing.T, label string, res retrieval.Result)) {
		t.Helper()
		ctx := context.Background()
		ranked := 0
		for round := 0; round < 2; round++ {
			for qi, q := range queries {
				k := topKs[(qi+round)%len(topKs)]
				view := c.WithTopK(k)
				label := fmt.Sprintf("round %d query %d K=%d", round, qi, k)
				got, err := view.RetrieveInto(ctx, q, buf)
				if err != nil {
					t.Fatalf("%s: into a kept buffer: %v", label, err)
				}
				want, err := view.RetrieveInto(ctx, q, nil)
				if err != nil {
					t.Fatalf("%s: fresh: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: into a kept buffer = %+v, into fresh storage = %+v", label, got, want)
				}
				check(t, label, got)
				ranked += len(got.Matches)
			}
		}
		if ranked == 0 {
			t.Fatal("no query ranked a match")
		}
	}

	t.Run("degraded shard", func(t *testing.T) {
		shards, err := shard.Split(m, 3)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		c, flaky := loopbackCoordinator(t, services(t, shards, 1), retrieval.Options{}, fastOptions(nil))
		var buf retrieval.RankBuf
		for _, q := range queries { // fill every child buffer, shard 1's too
			if _, err := c.RetrieveInto(context.Background(), q, &buf); err != nil {
				t.Fatalf("healthy query: %v", err)
			}
		}
		flaky[1].fail.Store(true)
		compare(t, c, &buf, func(t *testing.T, label string, res retrieval.Result) {
			if res.Cost.DegradedShards != 1 || !res.Cost.Truncated {
				t.Fatalf("%s: cost %+v, want shard 1 degraded", label, res.Cost)
			}
		})
	})

	t.Run("stale re-query", func(t *testing.T) {
		shards, err := shard.Split(m, 2)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		met := NewMetrics(obs.NewRegistry())
		c, flaky := loopbackCoordinator(t, services(t, shards, 2), retrieval.Options{}, fastOptions(met))
		flaky[0].stale.Store(true)
		compare(t, c, new(retrieval.RankBuf), func(t *testing.T, label string, res retrieval.Result) {
			if res.Cost.DegradedShards != 0 || res.Cost.Truncated {
				t.Fatalf("%s: cost %+v, want the re-query to merge", label, res.Cost)
			}
		})
		// Every query answered stale once, then current.
		if calls, want := flaky[0].calls.Load(), 2*flaky[1].calls.Load(); calls != want || met.GenConflicts.Value() != 0 {
			t.Fatalf("stale shard answered %d calls (want %d), %d generation conflicts", calls, want, met.GenConflicts.Value())
		}
	})

	t.Run("hedge win", func(t *testing.T) {
		shards, err := shard.Split(m, 2)
		if err != nil {
			t.Fatalf("split: %v", err)
		}
		svcs := services(t, shards, 1)
		slow := &flakyTransport{Transport: &localTransport{svc: svcs[0], name: "slow"}}
		slow.delay.Store(int64(300 * time.Millisecond))
		fast := &flakyTransport{Transport: &localTransport{svc: svcs[0], name: "fast"}}
		other := &localTransport{svc: svcs[1], name: "other"}
		met := NewMetrics(obs.NewRegistry())
		c, err := New([][]Transport{{slow, fast}, {other}}, retrieval.Options{}, Options{
			HedgeMax:       2 * time.Millisecond,
			AttemptTimeout: 2 * time.Second,
			Metrics:        met,
		})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		compare(t, c, new(retrieval.RankBuf), func(t *testing.T, label string, res retrieval.Result) {
			if res.Cost.DegradedShards != 0 || res.Cost.Truncated {
				t.Fatalf("%s: cost %+v, want a complete ranking", label, res.Cost)
			}
		})
		if met.HedgeWins.Value() == 0 {
			t.Fatal("no hedge won: the slow primary was never cut")
		}
	})
}

// lateReader is a replica that never answers: it waits until its
// exchange is abandoned and then reads the request again, as an rpc
// exchange still encoding it would, counting the reads that found the
// request changed under it.
type lateReader struct {
	localTransport
	calls   atomic.Int64
	done    atomic.Int64
	changed atomic.Int64
}

func (t *lateReader) RetrieveBy(ctx context.Context, _ time.Time, _ time.Duration, req *rpc.RetrieveRequest, _ *rpc.RetrieveResponse) error {
	defer t.done.Add(1)
	t.calls.Add(1)
	before := fmt.Sprint(*req)
	<-ctx.Done()
	time.Sleep(2 * time.Millisecond) // the query returns, the next one starts
	if fmt.Sprint(*req) != before {
		t.changed.Add(1)
	}
	return ctx.Err()
}

// TestAbandonedHedgeKeepsItsRequest pins the hedge rule: a query whose
// hedge timer fired never hands its scatter state back, because the
// abandoned hedge may still be reading the request after the query has
// returned. Two different queries alternate over a shard whose second
// replica is a lateReader; the primary answers after the hedge delay, so
// the hedge is abandoned on every query the lateReader is not the
// primary of.
func TestAbandonedHedgeKeepsItsRequest(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 28, Videos: 4})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svc := services(t, shards, 1)[0]
	primary := &flakyTransport{Transport: &localTransport{svc: svc, name: "primary"}}
	primary.delay.Store(int64(5 * time.Millisecond))
	late := &lateReader{localTransport: localTransport{svc: svc, name: "late"}}
	c, err := New([][]Transport{{primary, late}}, retrieval.Options{}, Options{HedgeMax: time.Millisecond, AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	queries := retrievaltest.Queries(m)
	var buf retrieval.RankBuf
	for i := 0; i < 20; i++ {
		if _, err := c.RetrieveInto(context.Background(), queries[i%2+2], &buf); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	// The last query's hedge may still be starting or reading.
	time.Sleep(20 * time.Millisecond)
	for deadline := time.Now().Add(2 * time.Second); late.done.Load() != late.calls.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an abandoned exchange never returned")
		}
	}
	if late.calls.Load() == 0 {
		t.Fatal("no hedge was abandoned")
	}
	if n := late.changed.Load(); n > 0 {
		t.Fatalf("%d of %d abandoned exchanges found their request rewritten: a hedged scatter state was recycled", n, late.calls.Load())
	}
}
