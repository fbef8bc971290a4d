package coord

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// tcpCoordinator builds a coordinator over one real loopback rpc server
// per shard, torn down with the test.
func tcpCoordinator(t *testing.T, shards []*shard.Shard) *Coordinator {
	t.Helper()
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
	c, err := New(transports, retrieval.Options{}, fastOptions(nil))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestSingleListIsMergeFixpoint pins the premise of the server's merge
// skip: one list returned by the engine, a shard group, or a coordinator
// over rpc shards is already what MergeRanked would make of it —
// sortMatches-ordered, free of duplicate state sequences, and cut to
// TopK — so a query that produced exactly one list may be served without
// re-merging. Every domain, the positive and negation query corpora,
// K∈{1,2,3,7} and several TopK values (including the default) are
// covered.
func TestSingleListIsMergeFixpoint(t *testing.T) {
	ctx := context.Background()
	ranked := 0 // lists of two or more matches: the ones an order or dedup slip would show in
	for _, d := range retrievaltest.Domains() {
		m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 29, Videos: 9, MaxShots: 10, Events: 4, Domain: d})
		queries := append(retrievaltest.Queries(m), retrievaltest.NegationQueries(m)...)
		for _, opts := range []retrieval.Options{
			{TopK: 1, AnnotatedOnly: true},
			{TopK: 3, Beam: 2},
			{},
			{TopK: 50, CrossVideo: true, AnnotatedOnly: true},
		} {
			engine, err := retrieval.NewEngine(m, opts)
			if err != nil {
				t.Fatalf("%s: engine: %v", d.Name, err)
			}
			check := func(label string, search interface {
				RetrieveContext(context.Context, retrieval.Query) (*retrieval.Result, error)
			}) {
				t.Helper()
				for qi, q := range queries {
					res, err := search.RetrieveContext(ctx, q)
					if err != nil {
						t.Fatalf("%s %s opts=%+v query %d: %v", d.Name, label, opts, qi, err)
					}
					if len(res.Matches) > 1 {
						ranked++
					}
					merged := retrieval.MergeRanked(res.Matches, opts.TopK)
					if len(merged) == 0 && len(res.Matches) == 0 {
						continue // nil and empty render alike
					}
					if !reflect.DeepEqual(merged, res.Matches) {
						t.Fatalf("%s %s opts=%+v query %d: MergeRanked changed a single list\n got %+v\nwant %+v",
							d.Name, label, opts, qi, merged, res.Matches)
					}
				}
			}
			check("engine", engine)
			for _, k := range []int{1, 2, 3, 7} {
				group, err := shard.NewGroup(m, k, opts, shard.GroupOptions{})
				if err != nil {
					t.Fatalf("%s k=%d: group: %v", d.Name, k, err)
				}
				check(fmt.Sprintf("group k=%d", k), group)
				shards, err := shard.Split(m, k)
				if err != nil {
					t.Fatalf("%s k=%d: split: %v", d.Name, k, err)
				}
				check(fmt.Sprintf("coord k=%d", k), tcpCoordinator(t, shards).WithOptions(opts))
			}
		}
	}
	if ranked < 100 {
		t.Fatalf("only %d multi-match lists checked; the corpus no longer exercises ranking", ranked)
	}
}
