package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/retrieval"
)

// stallTracer sleeps for stall on every video the engine enters while
// armed: a query with a shorter budget then reaches its first deadline
// poll with the budget spent, wherever that poll falls, so its truncated
// ranking is the same on every run.
type stallTracer struct {
	armed atomic.Bool
	stall time.Duration
}

func (st *stallTracer) Event(ev retrieval.TraceEvent) {
	if ev.Kind == retrieval.TraceVideoEnter && st.armed.Load() {
		time.Sleep(st.stall)
	}
}

// TestWarmRequestAnswersLikeFreshStorage sends one sequence of requests
// twice through the full stack, whose pooled request values the first
// pass leaves warm and dirty, and compares every body of the second pass
// with the same server's answer from fresh storage (its bare handler,
// which takes a new request value per request). The sequence moves
// between large and small rankings, explained and not, scoped, merged
// from two branches, empty, and truncated by the request's budget, on an
// engine, on a live server whose gather adds a delta child, and in
// coordinator mode over loopback shard servers.
func TestWarmRequestAnswersLikeFreshStorage(t *testing.T) {
	stall := &stallTracer{stall: 60 * time.Millisecond}
	served := Config{
		Options:  retrieval.Options{Tracer: stall},
		Coalesce: true, FastLaneCost: 1000, MaxInflight: 64,
	}
	cfg := served
	cfg.Model = testModel(t)
	engine, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, lts := newLiveServer(t, live.Config{LogPath: filepath.Join(t.TempDir(), "journal")}, served)
	mustIngest(t, lts, "reuse-live", 41)
	cfg = Config{Model: testModel(t), Coalesce: true, FastLaneCost: 1000, MaxInflight: 64}
	cfg.Coordinator, _ = loopbackCoordinator(t, cfg.Model, 2)
	coordinated, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	video := int(engine.current.Load().model.VideoIDs[1])
	sequence := []struct {
		name     string
		req      QueryRequest
		truncate bool
	}{
		{name: "top 100 explained", req: QueryRequest{Pattern: "goal -> free_kick", TopK: 100, Explain: true, CrossVideo: true, SimilarShots: true}},
		{name: "top 1", req: QueryRequest{Pattern: "goal -> free_kick", TopK: 1}},
		{name: "scoped", req: QueryRequest{Pattern: "goal", ScopeVideo: video, TopK: 20}},
		{name: "two branches", req: QueryRequest{Pattern: "goal | foul -> free_kick?", TopK: 30, Explain: true}},
		{name: "empty", req: QueryRequest{Pattern: "goal", ScopeFromMS: 1 << 40}},
		{name: "truncated", req: QueryRequest{Pattern: "goal -> free_kick", TopK: 50, Beam: 8, TimeoutMS: 30}, truncate: true},
		{name: "top 100 again", req: QueryRequest{Pattern: "goal | foul -> free_kick?", TopK: 100, SimilarShots: true}},
	}
	for _, setup := range []struct {
		name      string
		s         *Server
		truncates bool // the setup's engines run stall
	}{
		{"engine", engine, true},
		{"live delta", ls, true},
		{"coordinator", coordinated, false},
	} {
		warm, fresh := setup.s.Handler(), http.HandlerFunc(setup.s.handleQuery)
		for pass := 0; pass < 2; pass++ {
			for _, c := range sequence {
				if c.truncate && !setup.truncates {
					continue
				}
				body := queryBody(t, c.req)
				stall.armed.Store(c.truncate)
				code, got := serve(warm, http.MethodPost, "/api/query", body)
				wcode, want := serve(fresh, http.MethodPost, "/api/query", body)
				stall.armed.Store(false)
				if code != http.StatusOK || wcode != http.StatusOK {
					t.Fatalf("%s %s: status %d warm, %d fresh: %s", setup.name, c.name, code, wcode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s pass %d %s: a warm request value answered\n%s\nfresh storage answered\n%s",
						setup.name, pass, c.name, got, want)
				}
				if c.truncate && !bytes.Contains(got, []byte(`"truncated":true`)) {
					t.Fatalf("%s %s: not truncated: %s", setup.name, c.name, got)
				}
			}
		}
	}
}

// TestCoalescedWaiterKeepsLeaderOutcome parks a leader in the lattice
// until a second, identical request has attached to its call, then lets
// it finish: the waiter renders from the leader's request value, which
// the leader must not put back in the pool (where the next request
// would overwrite it). Both bodies must equal the solo body; run it
// under -race with -count=20 to catch a recycled outcome read by the
// waiter.
func TestCoalescedWaiterKeepsLeaderOutcome(t *testing.T) {
	gate := &blockTracer{release: make(chan struct{})}
	s, err := New(Config{
		Model:   testModel(t),
		Options: retrieval.Options{Tracer: gate},
		// The solo body comes from a server with the same model and no
		// gate.
		Coalesce: true, FastLaneCost: 1 << 30, MaxInflight: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, req := range []QueryRequest{
		{Pattern: "goal -> free_kick", TopK: 20, Explain: true},
		{Pattern: "goal | foul -> free_kick?", TopK: 20},
	} {
		body := queryBody(t, req)
		code, want := serve(solo.Handler(), http.MethodPost, "/api/query", body)
		if code != http.StatusOK {
			t.Fatalf("solo: status %d: %s", code, want)
		}
		hits := s.metrics.coalesceHits.Value()
		gate.release = make(chan struct{})
		bodies := make([][]byte, 2)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/query", bytes.NewReader(body)))
				bodies[i] = w.Body.Bytes()
			}()
			if i == 0 {
				waitInflight(t, s, 1) // the leader is in, parked at the gate
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.metrics.coalesceHits.Value() == hits {
			if time.Now().After(deadline) {
				t.Fatal("the second request never attached to the leader's call")
			}
			time.Sleep(time.Millisecond)
		}
		close(gate.release)
		wg.Wait()
		for i, got := range bodies {
			if !bytes.Equal(got, want) {
				t.Fatalf("%q request %d answered\n%s\nthe solo body is\n%s", req.Pattern, i, got, want)
			}
		}
		// Later requests take values from the pool; none may be the one
		// the waiter rendered from.
		for i := 0; i < 4; i++ {
			if code, got := serve(h, http.MethodPost, "/api/query", body); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("%q after the coalesced pair: status %d\n%s", req.Pattern, code, got)
			}
		}
	}
}

// TestOversizeRankingNotPooled: a request value whose gather grew past
// maxKeptBuf goes back to the pool without that storage, and one that
// a waiter shares does not go back at all.
func TestOversizeRankingNotPooled(t *testing.T) {
	rq := requests.New().(*request)
	big := make([]retrieval.Match, maxKeptBuf/100)
	for i := range big {
		big[i] = retrieval.Match{States: []int{i}, Score: float64(i)}
	}
	half := len(big) / 2
	rq.gather.Reset(len(big), time.Time{})
	rq.gather.Add(&retrieval.Result{Matches: big[:half]}, 0)
	rq.gather.Add(&retrieval.Result{Matches: big[half:]}, 0)
	if res := rq.gather.Done(context.Background()); len(res.Matches) != len(big) {
		t.Fatalf("merged %d matches, want %d", len(res.Matches), len(big))
	}
	if size := rq.gather.Size(); size <= maxKeptBuf {
		t.Fatalf("a %d-match merge holds %d bytes, not past maxKeptBuf %d", len(big), size, maxKeptBuf)
	}
	rq.release()
	if size := rq.gather.Size(); size != 0 || rq.merge.Size() != 0 {
		t.Errorf("released with %d bytes of ranking storage, cap %d", size, maxKeptBuf)
	}
	if rq.gather.Buf != &rq.merge {
		t.Error("release detached the gather from its merge buffer")
	}

	small := requests.New().(*request)
	small.shared = true
	small.out.fresh = 7
	small.release()
	if small.out.fresh != 7 {
		t.Error("release reset a request value whose outcome a waiter shares")
	}
}
