package coord

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/videomodel"
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

// deltaOf builds a live delta over m's videos, one annotated shot per
// state: a delta engine over the same events the query corpora ask for.
func deltaOf(t *testing.T, m *hmmm.Model, d *videomodel.Domain, opts retrieval.Options) *live.Delta {
	t.Helper()
	var records []live.Record
	for vi, id := range m.VideoIDs {
		rec := live.Record{Video: id, Name: fmt.Sprint("delta-", id)}
		lo, hi := m.VideoStates(vi)
		for gi := lo; gi < hi; gi++ {
			st := m.States[gi]
			rec.Shots = append(rec.Shots, live.ShotRecord{
				ID: st.Shot, Index: gi - lo, StartMS: m.StartMS(gi), EndMS: m.StartMS(gi) + 1,
				Events: st.Events, Features: slices.Clone(m.B1.Row(gi)),
			})
		}
		if len(rec.Shots) > 0 {
			records = append(records, rec)
		}
	}
	delta, err := live.NewDelta(records, m.NumStates(), 1, hmmm.BuildOptions{LearnP12: true, Domain: d}, opts)
	if err != nil {
		t.Fatalf("%s: delta: %v", d.Name, err)
	}
	return delta
}

// fedPatterns renders MATN patterns over m's present events: single
// and multi-step, an alternation and an optional step (several linear
// patterns, merged member-locally), and a negation.
func fedPatterns(m *hmmm.Model, d *videomodel.Domain) []string {
	present := retrievaltest.PresentEvents(m)
	e0, e1 := d.EventName(present[0]), d.EventName(present[len(present)-1])
	patterns := []string{e0, e1, e0 + " -> " + e1, e0 + " -> " + e1 + " -> " + e0,
		"(" + e0 + " | " + e1 + ") -> " + e1, e0 + "? -> " + e1}
	if e0 != e1 {
		patterns = append(patterns, e0+" & !"+e1)
	}
	return patterns
}

// TestSingleListIsMergeFixpoint pins the premise of the gather's merge
// skip: one list returned by the engine, a shard group, a coordinator
// over rpc shards, a live delta's engine, or a one-member federation
// over the engine or the coordinator is already what MergeRanked would
// make of it — sortMatches-ordered, free of duplicate state sequences,
// and cut to TopK — so a gather that received exactly one non-empty list
// may adopt it without re-merging. Every domain, the positive and
// negation query corpora, K∈{1,2,3,7} and several TopK values
// (including the default) are covered.
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
			check("delta", deltaOf(t, m, d, opts).Engine)
			checkFed := func(label string, member retrieval.Retriever) {
				t.Helper()
				f, err := fed.New([]fed.Member{{Name: d.Name, Domain: d, States: m.NumStates(), Retriever: member}},
					fed.Options{TopK: opts.TopK})
				if err != nil {
					t.Fatalf("%s %s: federation: %v", d.Name, label, err)
				}
				for _, pattern := range fedPatterns(m, d) {
					resp, err := f.Query(ctx, fed.Request{Pattern: pattern})
					if err != nil {
						t.Fatalf("%s %s opts=%+v %q: %v", d.Name, label, opts, pattern, err)
					}
					list := make([]retrieval.Match, len(resp.Matches))
					for i, fm := range resp.Matches {
						list[i] = fm.Match
					}
					if len(list) > 1 {
						ranked++
					}
					if merged := retrieval.MergeRanked(list, opts.TopK); len(list) > 0 && !reflect.DeepEqual(merged, list) {
						t.Fatalf("%s %s opts=%+v %q: MergeRanked changed a single list\n got %+v\nwant %+v",
							d.Name, label, opts, pattern, merged, list)
					}
				}
			}
			checkFed("federation over engine", engine)
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
				coordinator := tcpCoordinator(t, shards).WithOptions(opts)
				check(fmt.Sprintf("coord k=%d", k), coordinator)
				checkFed(fmt.Sprintf("federation over coord k=%d", k), coordinator)
			}
		}
	}
	if ranked < 100 {
		t.Fatalf("only %d multi-match lists checked; the corpus no longer exercises ranking", ranked)
	}
}
