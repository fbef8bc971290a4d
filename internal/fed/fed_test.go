// Differential tests of the federation layer: a single-member
// federation must be a bit-identical passthrough over the member's own
// retriever, multi-member merges must be deterministic across worker
// counts and invariant under each member's internal shard split, and
// vocabulary-based member skipping must never fail a query another
// member can answer.
package fed_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/videomodel"
)

// memberModel builds one deterministic per-domain model for federation
// tests: enough events that every domain pattern below has candidates.
func memberModel(t *testing.T, d *videomodel.Domain, seed uint64) *hmmm.Model {
	t.Helper()
	return retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: seed, Videos: 5, MaxShots: 10, Events: d.NumEvents(), Domain: d, LearnP12: true,
	})
}

func memberEngine(t *testing.T, m *hmmm.Model) *retrieval.Engine {
	t.Helper()
	eng, err := retrieval.NewEngine(m, retrieval.Options{AnnotatedOnly: true, TopK: 10, Beam: 10})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// memberPattern renders a two-step pattern from events present in m, in
// m's own domain vocabulary.
func memberPattern(t *testing.T, m *hmmm.Model, d *videomodel.Domain) string {
	t.Helper()
	present := retrievaltest.PresentEvents(m)
	if len(present) < 2 {
		t.Fatalf("model has %d present events, need 2", len(present))
	}
	return fmt.Sprintf("%s -> %s", d.EventName(present[0]), d.EventName(present[1]))
}

// TestSingleMemberPassthroughBitIdentical pins the N=1 contract: a
// federation of one member returns exactly what executing the compiled
// pattern against the member's retriever returns — states, scores,
// weights, order, and cost — with no normalization.
func TestSingleMemberPassthroughBitIdentical(t *testing.T) {
	for _, d := range retrievaltest.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			m := memberModel(t, d, 7)
			eng := memberEngine(t, m)
			f, err := fed.New([]fed.Member{
				{Name: d.Name, Domain: d, States: m.NumStates(), Retriever: eng},
			}, fed.Options{TopK: 10})
			if err != nil {
				t.Fatal(err)
			}
			patterns := []string{
				memberPattern(t, m, d),
				d.EventName(retrievaltest.PresentEvents(m)[0]),
			}
			for _, pattern := range patterns {
				queries, err := matn.CompileStringDomain(pattern, d)
				if err != nil {
					t.Fatalf("%s: %v", pattern, err)
				}
				var all []retrieval.Match
				for _, q := range queries {
					res, err := eng.Retrieve(q)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, res.Matches...)
				}
				want := retrieval.MergeRanked(all, 10)

				got, err := f.Query(context.Background(), fed.Request{Pattern: pattern})
				if err != nil {
					t.Fatal(err)
				}
				if got.Normalized {
					t.Errorf("%s: single-member response claims normalization", pattern)
				}
				raw := make([]retrieval.Match, len(got.Matches))
				for i, fm := range got.Matches {
					if fm.Member != d.Name || fm.Domain != d.Name {
						t.Errorf("%s: match tagged %s/%s, want %s", pattern, fm.Member, fm.Domain, d.Name)
					}
					raw[i] = fm.Match
				}
				retrievaltest.RequireSameMatches(t, pattern, want, raw)
			}
		})
	}
}

// TestFederatedMergeDeterministicAcrossWorkers pins that the merged
// multi-domain ranking is identical for every fan-out width (GOMAXPROCS).
func TestFederatedMergeDeterministicAcrossWorkers(t *testing.T) {
	domains := retrievaltest.Domains()
	models := make([]*hmmm.Model, len(domains))
	members := make([]fed.Member, len(domains))
	for i, d := range domains {
		models[i] = memberModel(t, d, uint64(11+i))
		members[i] = fed.Member{
			Name: d.Name, Domain: d, States: models[i].NumStates(),
			Retriever: memberEngine(t, models[i]),
		}
	}
	// A pattern every domain can execute would need a shared vocabulary;
	// instead probe each member's own pattern plus one cross-member one.
	patterns := []string{
		memberPattern(t, models[0], domains[0]),
		memberPattern(t, models[1], domains[1]),
		memberPattern(t, models[2], domains[2]),
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, pattern := range patterns {
		var base *fed.Response
		for _, procs := range []int{1, 2, 3, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			f, err := fed.New(members, fed.Options{TopK: 10})
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Query(context.Background(), fed.Request{Pattern: pattern})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = got
				continue
			}
			label := fmt.Sprintf("%s GOMAXPROCS=%d", pattern, procs)
			if len(got.Matches) != len(base.Matches) {
				t.Fatalf("%s: %d matches, want %d", label, len(got.Matches), len(base.Matches))
			}
			for i := range base.Matches {
				w, g := base.Matches[i], got.Matches[i]
				if w.Member != g.Member || w.Score != g.Score {
					t.Fatalf("%s: rank %d = %s/%v, want %s/%v", label, i, g.Member, g.Score, w.Member, w.Score)
				}
				retrievaltest.RequireSameMatches(t, label, []retrieval.Match{w.Match}, []retrieval.Match{g.Match})
			}
			if got.Cost != base.Cost {
				t.Errorf("%s: cost %+v, want %+v", label, got.Cost, base.Cost)
			}
		}
	}
}

// TestFederatedMergeStableUnderShardSplits swaps each member's bare
// engine for a shard.Group of K shards: because the group is pinned
// bit-identical to the engine, the merged federated ranking must not
// move for any K.
func TestFederatedMergeStableUnderShardSplits(t *testing.T) {
	domains := retrievaltest.Domains()
	models := make([]*hmmm.Model, len(domains))
	for i, d := range domains {
		models[i] = memberModel(t, d, uint64(21+i))
	}
	opts := retrieval.Options{AnnotatedOnly: true, TopK: 10, Beam: 10}

	build := func(k int) *fed.Federation {
		members := make([]fed.Member, len(domains))
		for i, d := range domains {
			var r retrieval.Retriever
			if k <= 0 {
				r = memberEngine(t, models[i])
			} else {
				g, err := shard.NewGroup(models[i], k, opts, shard.GroupOptions{})
				if err != nil {
					t.Fatalf("k=%d %s: %v", k, d.Name, err)
				}
				r = g
			}
			members[i] = fed.Member{Name: d.Name, Domain: d, States: models[i].NumStates(), Retriever: r}
		}
		f, err := fed.New(members, fed.Options{TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	pattern := memberPattern(t, models[1], domains[1])
	base, err := build(0).Query(context.Background(), fed.Request{Pattern: pattern})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		got, err := build(k).Query(context.Background(), fed.Request{Pattern: pattern})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		label := fmt.Sprintf("shards k=%d", k)
		if len(got.Matches) != len(base.Matches) {
			t.Fatalf("%s: %d matches, want %d", label, len(got.Matches), len(base.Matches))
		}
		for i := range base.Matches {
			if got.Matches[i].Member != base.Matches[i].Member {
				t.Fatalf("%s: rank %d from %s, want %s", label, i, got.Matches[i].Member, base.Matches[i].Member)
			}
			retrievaltest.RequireSameMatches(t, label,
				[]retrieval.Match{base.Matches[i].Match}, []retrieval.Match{got.Matches[i].Match})
		}
	}
}

// TestVocabularySkip pins the skip semantics: a soccer-only event makes
// the news member sit out with a recorded reason while soccer answers;
// a pattern no member understands fails with every reason listed.
func TestVocabularySkip(t *testing.T) {
	soccer, news := videomodel.Soccer(), videomodel.News()
	ms := memberModel(t, soccer, 31)
	mn := memberModel(t, news, 32)
	f, err := fed.New([]fed.Member{
		{Name: "soccer", Domain: soccer, States: ms.NumStates(), Retriever: memberEngine(t, ms)},
		{Name: "news", Domain: news, States: mn.NumStates(), Retriever: memberEngine(t, mn)},
	}, fed.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}

	got, err := f.Query(context.Background(), fed.Request{Pattern: "goal -> corner_kick"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Normalized {
		t.Error("one executing member must not trigger normalization")
	}
	if len(got.Members) != 2 {
		t.Fatalf("%d member reports, want 2", len(got.Members))
	}
	if got.Members[0].Skipped || got.Members[0].Name != "soccer" {
		t.Errorf("soccer report: %+v", got.Members[0])
	}
	if !got.Members[1].Skipped || !strings.Contains(got.Members[1].Reason, "goal") {
		t.Errorf("news report: %+v", got.Members[1])
	}
	for _, m := range got.Matches {
		if m.Member != "soccer" {
			t.Errorf("match from skipped member: %+v", m)
		}
	}

	if _, err := f.Query(context.Background(), fed.Request{Pattern: "no_such_event"}); err == nil {
		t.Error("pattern outside every vocabulary accepted")
	} else if !strings.Contains(err.Error(), "soccer") || !strings.Contains(err.Error(), "news") {
		t.Errorf("error does not list every member's reason: %v", err)
	}
}

// TestMemberFilterAndNormalization pins request-level member selection
// and the >= 2 active members normalization rule.
func TestMemberFilterAndNormalization(t *testing.T) {
	soccer, basketball := videomodel.Soccer(), videomodel.Basketball()
	m1 := memberModel(t, soccer, 41)
	m2 := memberModel(t, soccer, 42) // second soccer archive: shared vocabulary
	m3 := memberModel(t, basketball, 43)
	f, err := fed.New([]fed.Member{
		{Name: "league-a", Domain: soccer, States: m1.NumStates(), Retriever: memberEngine(t, m1)},
		{Name: "league-b", Domain: soccer, States: m2.NumStates(), Retriever: memberEngine(t, m2)},
		{Name: "nba", Domain: basketball, States: m3.NumStates(), Retriever: memberEngine(t, m3)},
	}, fed.Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	pattern := memberPattern(t, m1, soccer)

	both, err := f.Query(context.Background(), fed.Request{Pattern: pattern, Members: []string{"league-a", "league-b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !both.Normalized {
		t.Error("two executing members must normalize scores")
	}
	if len(both.Members) != 2 {
		t.Fatalf("%d reports for a two-member request", len(both.Members))
	}
	if len(both.Matches) > 0 && both.Matches[0].Score > 1 {
		t.Errorf("normalized top score %v > 1", both.Matches[0].Score)
	}
	seen := map[string]bool{}
	for _, m := range both.Matches {
		seen[m.Member] = true
	}
	if seen["nba"] {
		t.Error("filtered-out member contributed matches")
	}

	if _, err := f.Query(context.Background(), fed.Request{Pattern: pattern, Members: []string{"nhl"}}); err == nil {
		t.Error("unknown member name accepted")
	}
}

// TestNewValidation rejects malformed federations.
func TestNewValidation(t *testing.T) {
	d := videomodel.Soccer()
	m := memberModel(t, d, 51)
	eng := memberEngine(t, m)
	ok := fed.Member{Name: "a", Domain: d, States: m.NumStates(), Retriever: eng}
	cases := []struct {
		name    string
		members []fed.Member
	}{
		{"empty", nil},
		{"unnamed", []fed.Member{{Domain: d, States: 1, Retriever: eng}}},
		{"duplicate", []fed.Member{ok, ok}},
		{"no domain", []fed.Member{{Name: "a", States: 1, Retriever: eng}}},
		{"no states", []fed.Member{{Name: "a", Domain: d, Retriever: eng}}},
		{"no retriever", []fed.Member{{Name: "a", Domain: d, States: 1}}},
	}
	for _, tc := range cases {
		if _, err := fed.New(tc.members, fed.Options{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	f, err := fed.New([]fed.Member{ok}, fed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Query(context.Background(), fed.Request{Pattern: "   "}); err == nil {
		t.Error("blank pattern accepted")
	}
}

// TestRequestTopKReachesMembers pins that a request's TopK is what each
// member ranks to, not the member retriever's own: a member built with
// TopK 10 (as `hmmmd -domains` builds them) answers a top_k 25 request
// with everything the same retriever finds at TopK 25, whether it is a
// bare engine, a shard group or a coordinator over loopback shards.
func TestRequestTopKReachesMembers(t *testing.T) {
	d := videomodel.Soccer()
	m := retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: 7, Videos: 12, MaxShots: 10, Events: d.NumEvents(), Domain: d, LearnP12: true,
	})
	opts := retrieval.Options{Beam: 4, TopK: 10}
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	group, err := shard.NewGroup(m, 2, opts, shard.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coordinator := loopbackCoordinator(t, m, 2, opts)
	pattern := d.EventName(retrievaltest.PresentEvents(m)[0])
	queries, err := matn.CompileStringDomain(pattern, d)
	if err != nil {
		t.Fatal(err)
	}
	const topK = 25
	wide := opts
	wide.TopK = topK
	want, err := eng.WithOptions(wide).Retrieve(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) <= opts.TopK {
		t.Fatalf("the engine finds %d matches at TopK %d; the test needs more than the member's own %d",
			len(want.Matches), topK, opts.TopK)
	}
	for _, r := range []struct {
		name string
		r    retrieval.Retriever
	}{{"engine", eng}, {"group", group}, {"coordinator", coordinator}} {
		f, err := fed.New([]fed.Member{{Name: d.Name, Domain: d, States: m.NumStates(), Retriever: r.r}}, fed.Options{TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Query(context.Background(), fed.Request{Pattern: pattern, TopK: topK})
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]retrieval.Match, len(got.Matches))
		for i, fm := range got.Matches {
			raw[i] = fm.Match
		}
		retrievaltest.RequireSameMatches(t, r.name, want.Matches, raw)
	}
}

// loopbackCoordinator splits m into k shards, serves each on a loopback
// rpc server and returns a coordinator over them, all torn down with
// the test.
func loopbackCoordinator(t *testing.T, m *hmmm.Model, k int, opts retrieval.Options) *coord.Coordinator {
	t.Helper()
	shards, err := shard.Split(m, k)
	if err != nil {
		t.Fatal(err)
	}
	transports := make([][]coord.Transport, len(shards))
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
		transports[i] = []coord.Transport{rpc.NewClient(ln.Addr().String(), time.Second, 2)}
	}
	c, err := coord.New(transports, opts, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// failingRetriever refuses every retrieval, as a fleet does whose shard
// answers bad_request.
type failingRetriever struct{ err error }

func (f failingRetriever) RetrieveContext(context.Context, retrieval.Query) (*retrieval.Result, error) {
	return nil, f.err
}

func (f failingRetriever) WithTopK(int) retrieval.Retriever { return f }

// TestMemberErrorFailsQuery: a member whose retriever fails fails the
// federated query with an error naming that member, instead of a merge
// of the other members' rankings that reads as complete.
func TestMemberErrorFailsQuery(t *testing.T) {
	d := videomodel.Soccer()
	m := memberModel(t, d, 3)
	boom := errors.New("shard refused the query")
	f, err := fed.New([]fed.Member{
		{Name: "healthy", Domain: d, States: m.NumStates(), Retriever: memberEngine(t, m)},
		{Name: "broken", Domain: d, States: m.NumStates(), Retriever: failingRetriever{boom}},
	}, fed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.Query(context.Background(), fed.Request{Pattern: memberPattern(t, m, d)})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), `"broken"`) {
		t.Fatalf("Query = %+v, %v; want an error wrapping %q that names the broken member", resp, err, boom)
	}
}
