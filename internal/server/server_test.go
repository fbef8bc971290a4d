package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/xrand"
)

func testServer(t *testing.T, threshold int) (*Server, *httptest.Server) {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 31, Videos: 5, Shots: 200, Annotated: 50, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Model: m, RetrainThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Videos != 5 || st.States != 50 || st.Features != 20 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.EventCounts) == 0 {
		t.Error("no event counts in stats")
	}
}

func TestEventsEndpoint(t *testing.T) {
	_, ts := testServer(t, 0)
	events, err := client.New(ts.URL, nil).Events(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Errorf("events = %v, want 8 concepts", events)
	}
}

func TestVideosEndpoint(t *testing.T) {
	_, ts := testServer(t, 0)
	videos, err := client.New(ts.URL, nil).Videos(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(videos) != 5 {
		t.Fatalf("videos = %d, want 5", len(videos))
	}
	total := 0
	for _, v := range videos {
		total += v.States
	}
	if total != 50 {
		t.Errorf("total states across videos = %d, want 50", total)
	}
}

func TestQueryEndToEnd(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	resp, err := cl.Query(context.Background(), QueryRequest{Pattern: "foul", TopK: 5, Beam: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Expanded != 1 {
		t.Errorf("expanded = %d, want 1", resp.Expanded)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches for single-event query on a 50-event corpus")
	}
	if len(resp.Matches) > 5 {
		t.Errorf("TopK not honored: %d matches", len(resp.Matches))
	}
	for i, m := range resp.Matches {
		if m.Rank != i+1 {
			t.Errorf("rank %d at position %d", m.Rank, i)
		}
		if len(m.States) != 1 || len(m.Events) != 1 {
			t.Errorf("match shape wrong: %+v", m)
		}
	}
	if resp.Cost.SimEvals == 0 {
		t.Error("cost counters not propagated")
	}
}

func TestQueryAlternationMerges(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	resp, err := cl.Query(context.Background(), QueryRequest{Pattern: "foul | corner_kick", TopK: 10, Beam: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Expanded != 2 {
		t.Errorf("expanded = %d, want 2", resp.Expanded)
	}
	seen := map[string]bool{}
	for _, m := range resp.Matches {
		b, _ := json.Marshal(m.States)
		if seen[string(b)] {
			t.Errorf("duplicate match states %s after merge", b)
		}
		seen[string(b)] = true
	}
}

func TestQueryBadPattern(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	_, err := cl.Query(context.Background(), QueryRequest{Pattern: "not_an_event"})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("err = %v, want 400 APIError", err)
	}
}

func TestQueryMalformedJSON(t *testing.T) {
	_, ts := testServer(t, 0)
	resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader([]byte("{bad")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestFeedbackAndAutoRetrain(t *testing.T) {
	_, ts := testServer(t, 2)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()

	r1, err := cl.Feedback(ctx, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Retrained || r1.Pending != 1 {
		t.Errorf("first feedback: %+v, want pending=1 not retrained", r1)
	}
	r2, err := cl.Feedback(ctx, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Retrained || r2.Pending != 0 {
		t.Errorf("second feedback: %+v, want retrained with pending=0", r2)
	}
}

func TestFeedbackInvalidStates(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	_, err := cl.Feedback(context.Background(), []int{99999})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("err = %v, want 400", err)
	}
}

func TestManualRetrain(t *testing.T) {
	s, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	if _, err := cl.Feedback(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Retrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Retrained || resp.Pending != 0 {
		t.Errorf("retrain response: %+v", resp)
	}
	if err := s.Model().Validate(1e-9); err != nil {
		t.Fatalf("model invalid after retrain: %v", err)
	}
}

// TestRetrainReplacesModel pins build → serve → replace on the server: a
// retrain publishes a new model and engine, and the model the previous
// generation served is left exactly as it was.
func TestRetrainReplacesModel(t *testing.T) {
	s, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	old := s.current.Load()
	want := old.model.Clone()
	if _, err := cl.Feedback(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Retrain(ctx); err != nil {
		t.Fatal(err)
	}
	cur := s.current.Load()
	if cur.model == old.model || cur.engine == old.engine || cur.gen != old.gen+1 {
		t.Fatalf("retrain did not publish a new generation: gen %d -> %d", old.gen, cur.gen)
	}
	if cur.engine.Model() != cur.model {
		t.Fatal("published engine was built over another model")
	}
	if !reflect.DeepEqual(old.model, want) {
		t.Fatal("retrain mutated the previously served model")
	}
}

func TestQueryAfterRetrainStillWorks(t *testing.T) {
	_, ts := testServer(t, 1) // retrain on every feedback
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := cl.Feedback(ctx, []int{i, i + 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Query(ctx, QueryRequest{Pattern: "goal", Beam: 2}); err != nil {
			t.Fatalf("query after retrain %d: %v", i, err)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, 0)
	resp, err := http.Get(ts.URL + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/query status = %d, want 405", resp.StatusCode)
	}
}

func TestStateEndpoint(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	st, err := cl.State(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != 0 || len(st.B1) != 20 || len(st.Events) == 0 {
		t.Errorf("state response malformed: %+v", st)
	}
	if _, err := cl.State(ctx, 99999); err == nil {
		t.Error("out-of-range state accepted")
	}
	resp, err := http.Get(ts.URL + "/api/states/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", resp.StatusCode)
	}
}

func TestParseEndpoint(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	out, err := cl.Parse(ctx, "goal ->[<30s] free_kick | foul")
	if err != nil {
		t.Fatal(err)
	}
	if out.States != 3 || len(out.Expanded) != 2 {
		t.Errorf("parse response: %+v", out)
	}
	if _, err := cl.Parse(ctx, "not_an_event"); err == nil {
		t.Error("bad pattern accepted by parse")
	}
}

func TestFeedbackLogPersistence(t *testing.T) {
	c, err := dataset.Build(dataset.Config{Seed: 33, Videos: 3, Shots: 90, Annotated: 18, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "feedback.gob")
	s1, err := New(Config{Model: m, FeedbackLogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	cl := client.New(ts1.URL, nil)
	ctx := context.Background()
	if _, err := cl.Feedback(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Feedback(ctx, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// A new server over the same path must see the accumulated patterns.
	s2, err := New(Config{Model: m, FeedbackLogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st, err := client.New(ts2.URL, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctPatterns != 2 {
		t.Errorf("restarted server sees %d patterns, want 2", st.DistinctPatterns)
	}
	if st.PendingFeedback != 2 {
		t.Errorf("restarted server pending = %d, want 2", st.PendingFeedback)
	}
}

func TestQueryWithExplanation(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	resp, err := cl.Query(context.Background(), QueryRequest{Pattern: "foul", TopK: 2, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches")
	}
	ex := resp.Matches[0].Explanation
	if len(ex) != 1 {
		t.Fatalf("explanation steps = %d, want 1", len(ex))
	}
	if ex[0].Weight == 0 || ex[0].Sim == 0 || len(ex[0].Features) == 0 {
		t.Errorf("explanation empty: %+v", ex[0])
	}
	if ex[0].Features[0].Feature == "" {
		t.Error("feature names missing")
	}
	// Without Explain the field stays empty.
	resp2, err := cl.Query(context.Background(), QueryRequest{Pattern: "foul", TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Matches[0].Explanation) != 0 {
		t.Error("explanation present without request")
	}
}

func TestRankVideosEndpoint(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	resp, err := cl.RankVideos(context.Background(), "foul", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Videos) == 0 || len(resp.Videos) > 3 {
		t.Fatalf("rank response = %d videos, want 1..3", len(resp.Videos))
	}
	for i := 1; i < len(resp.Videos); i++ {
		if resp.Videos[i].Score > resp.Videos[i-1].Score {
			t.Error("ranking unsorted")
		}
	}
	if _, err := cl.RankVideos(context.Background(), "bogus_event", 3); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestSimilarVideosEndpoint(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	videos, err := cl.Videos(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.SimilarVideos(context.Background(), videos[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Videos) != len(videos)-1 {
		t.Errorf("similar = %d videos, want %d", len(resp.Videos), len(videos)-1)
	}
	for _, v := range resp.Videos {
		if v.Video == videos[0].ID {
			t.Error("similarity list contains the probe video")
		}
	}
	if _, err := cl.SimilarVideos(context.Background(), 99999); err == nil {
		t.Error("unknown video accepted")
	}
}

// TestServerSoak fuzzes the API with a random but valid operation mix and
// asserts the model's stochastic invariants hold throughout.
func TestServerSoak(t *testing.T) {
	s, ts := testServer(t, 3)
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	rng := xrand.New(99)
	patterns := []string{
		"goal", "foul", "goal -> free_kick", "corner_kick | foul",
		"foul ->[<60s] free_kick", "goal -> player_change?",
	}
	var lastStates [][]int
	for i := 0; i < 120; i++ {
		switch rng.Intn(5) {
		case 0:
			resp, err := cl.Query(ctx, QueryRequest{
				Pattern: patterns[rng.Intn(len(patterns))],
				TopK:    1 + rng.Intn(10),
				Beam:    1 + rng.Intn(6),
				Explain: rng.Bool(0.3),
			})
			if err != nil {
				t.Fatalf("op %d query: %v", i, err)
			}
			lastStates = lastStates[:0]
			for _, m := range resp.Matches {
				lastStates = append(lastStates, m.States)
			}
		case 1:
			if len(lastStates) > 0 {
				if _, err := cl.Feedback(ctx, lastStates[rng.Intn(len(lastStates))]); err != nil {
					t.Fatalf("op %d feedback: %v", i, err)
				}
			}
		case 2:
			if _, err := cl.Stats(ctx); err != nil {
				t.Fatalf("op %d stats: %v", i, err)
			}
		case 3:
			if _, err := cl.RankVideos(ctx, patterns[rng.Intn(len(patterns))], 5); err != nil {
				t.Fatalf("op %d rank: %v", i, err)
			}
		case 4:
			if _, err := cl.Retrain(ctx); err != nil {
				t.Fatalf("op %d retrain: %v", i, err)
			}
		}
		if i%20 == 19 {
			if err := s.Model().Validate(1e-6); err != nil {
				t.Fatalf("model invariants broken after op %d: %v", i, err)
			}
		}
	}
}

func TestQueryWithScope(t *testing.T) {
	_, ts := testServer(t, 0)
	cl := client.New(ts.URL, nil)
	videos, err := cl.Videos(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Query(context.Background(), QueryRequest{
		Pattern: "foul | corner_kick | goal", TopK: 10, Beam: 8,
		ScopeVideo: videos[0].ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Matches {
		for _, v := range m.Videos {
			if v != videos[0].ID {
				t.Errorf("scoped query matched video %d, want %d", v, videos[0].ID)
			}
		}
	}
	// Invalid scope is rejected.
	_, err = cl.Query(context.Background(), QueryRequest{Pattern: "goal", ScopeFromMS: 10, ScopeToMS: 5})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad scope err = %v, want 400", err)
	}
}
