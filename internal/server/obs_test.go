package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/retrieval"
)

// do issues one request through the handler and returns the recorder.
func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestMetricsEndpoint checks that /metrics serves valid exposition text
// covering every instrumented subsystem: the HTTP serving path, the
// retrieval engine, feedback/retraining, and the store.
func TestMetricsEndpoint(t *testing.T) {
	s, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := do(t, h, http.MethodPost, "/api/query", `{"pattern":"goal"}`); w.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodGet, "/api/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", w.Code)
	}

	w := do(t, h, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	text := w.Body.String()
	for _, want := range []string{
		// HTTP serving path.
		`hmmm_http_requests_total{route="/api/query",code="2xx"} 1`,
		`hmmm_http_requests_total{route="other",code="4xx"} 1`,
		`hmmm_http_request_seconds_bucket{route="/api/query",le="+Inf"} 1`,
		"hmmm_http_inflight 0",
		"hmmm_http_shed_total 0",
		"hmmm_http_panics_total 0",
		// Retrieval engine.
		"hmmm_retrieval_queries_total 1",
		"hmmm_retrieval_sim_lookups_total",
		"hmmm_retrieval_sim_cache_hits_total",
		`hmmm_retrieval_stage_seconds_count{stage="search"} 1`,
		// Feedback and retraining.
		"hmmm_feedback_pending 0",
		"hmmm_feedback_total 0",
		"hmmm_feedback_persist_failures_total 0",
		"hmmm_retrain_total 0",
		"hmmm_retrain_seconds_count 0",
		"hmmm_model_generation 1",
		// Store recovery chain.
		"hmmm_store_model_loads_total",
		"hmmm_store_model_recoveries_total",
		"hmmm_store_corrupt_snapshots_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Exposition sanity: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestObsHammer drives queries, feedback, and retrains concurrently
// under -race and then checks the metric invariants the catalog
// promises: every issued request is counted exactly once under its
// status class, similarity lookups split exactly into hits and misses,
// and the inflight gauge returns to zero once the load drains.
func TestObsHammer(t *testing.T) {
	s, err := New(Config{
		Model:            testModel(t),
		RetrainThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const workers, iters = 4, 12
	var wg sync.WaitGroup
	var issued, ok2xx, other atomic2 // per-class client-side tallies
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var rec *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					rec = do(t, h, http.MethodPost, "/api/query", `{"pattern":"goal -> free_kick"}`)
				case 1:
					rec = do(t, h, http.MethodPost, "/api/feedback",
						fmt.Sprintf(`{"states":[%d,%d]}`, w, w+1))
				case 2:
					rec = do(t, h, http.MethodPost, "/api/retrain", "")
				}
				issued.add(1)
				if rec.Code/100 == 2 {
					ok2xx.add(1)
				} else {
					other.add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	m := s.metrics
	if got := m.requests.Total(); got != issued.v {
		t.Errorf("requests_total = %d, want %d issued", got, issued.v)
	}
	if got := m.requests.With("/api/query", "2xx").Value() +
		m.requests.With("/api/feedback", "2xx").Value() +
		m.requests.With("/api/retrain", "2xx").Value(); got != ok2xx.v {
		t.Errorf("2xx children sum = %d, want %d", got, ok2xx.v)
	}
	if other.v != 0 {
		t.Errorf("%d non-2xx responses during hammer", other.v)
	}
	lookups := m.retrieval.SimLookups.Value()
	hits := m.retrieval.SimHits.Value()
	misses := m.retrieval.SimMisses.Value()
	if hits+misses != lookups {
		t.Errorf("hits(%d) + misses(%d) != lookups(%d)", hits, misses, lookups)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0", got)
	}
	if got := m.retrains.Value(); got == 0 {
		t.Error("no retrains counted despite /api/retrain calls")
	}
	if gen := s.current.Load().gen; gen < 2 {
		t.Errorf("model generation = %d, want advanced by retrains", gen)
	}

	// /api/health and /api/stats must agree with the gauge (all zero at
	// rest, same source either way).
	var health api.HealthResponse
	if err := json.Unmarshal(do(t, h, http.MethodGet, "/api/health", "").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Inflight != int(m.inflight.Value()) {
		t.Errorf("health inflight %d != gauge %d", health.Inflight, m.inflight.Value())
	}
	var stats api.StatsResponse
	if err := json.Unmarshal(do(t, h, http.MethodGet, "/api/stats", "").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Runtime == nil {
		t.Fatal("stats missing runtime section")
	}
	// The stats request itself sits inside the admission gate while the
	// handler reads the gauge, so it sees exactly itself.
	if stats.Runtime.Inflight != 1 {
		t.Errorf("stats inflight = %d, want 1 (the stats request itself)", stats.Runtime.Inflight)
	}
	if stats.Runtime.ModelGeneration != s.current.Load().gen {
		t.Errorf("stats generation %d != snapshot %d", stats.Runtime.ModelGeneration, s.current.Load().gen)
	}
	if stats.Runtime.QueryP50MS <= 0 {
		t.Error("query p50 not populated after queries")
	}
}

// atomic2 is a tiny mutex counter for client-side tallies (plain ints
// would race under -race).
type atomic2 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic2) add(n uint64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }

// TestHealthInflightMatchesGauge pins the satellite fix: with one query
// parked inside the lattice, /api/health, /api/stats, and /metrics all
// report the same in-flight count, because all three read the gauge the
// admission middleware maintains. A second query is shed and counted.
func TestHealthInflightMatchesGauge(t *testing.T) {
	gate := &blockTracer{release: make(chan struct{})}
	s, ts := resilientServer(t, Config{
		Model:       testModel(t),
		Options:     retrieval.Options{Beam: 4, TopK: 5, Tracer: gate},
		MaxInflight: 1,
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/api/query", "application/json",
			strings.NewReader(`{"pattern":"goal"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInflight(t, s, 1)

	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Inflight != 1 || int64(health.Inflight) != s.metrics.inflight.Value() {
		t.Errorf("health inflight = %d, gauge = %d, want both 1",
			health.Inflight, s.metrics.inflight.Value())
	}

	// /metrics bypasses admission, so it scrapes fine at capacity and
	// shows the same gauge value.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics at capacity: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "hmmm_http_inflight 1") {
		t.Error("/metrics does not show the parked request in hmmm_http_inflight")
	}

	// A second query is shed with 503 and counted.
	resp, err = http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"pattern":"goal"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second query: %d, want 503", resp.StatusCode)
	}
	if got := s.metrics.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(gate.release)
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %d", s.metrics.inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowQueryLog checks the JSON-lines slow-query log end to end: a
// threshold of 1ns makes every query slow, and the logged entry carries
// the pattern, stage timings, and result shape.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{
		Model:              testModel(t),
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryWriter:    &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := do(t, h, http.MethodPost, "/api/query", `{"pattern":"goal -> free_kick","top_k":5}`); w.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", w.Code, w.Body)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1: %q", len(lines), buf.String())
	}
	var e slowQueryEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow log entry not JSON: %v", err)
	}
	if e.Pattern != "goal -> free_kick" {
		t.Errorf("pattern = %q", e.Pattern)
	}
	if e.DurationMS <= 0 {
		t.Errorf("duration_ms = %v", e.DurationMS)
	}
	for _, stage := range []string{"order", "search", "rank"} {
		if _, ok := e.StagesMS[stage]; !ok {
			t.Errorf("stages_ms missing %q: %v", stage, e.StagesMS)
		}
	}
	if e.Expanded != 1 || e.TopK != 5 {
		t.Errorf("entry = %+v", e)
	}
	if got := s.metrics.slow.Value(); got != 1 {
		t.Errorf("slow counter = %d, want 1", got)
	}

	// Without the trace-enabling slow log, queries log nothing.
	s2, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	if w := do(t, s2.Handler(), http.MethodPost, "/api/query", `{"pattern":"goal"}`); w.Code != http.StatusOK {
		t.Fatalf("query: %d", w.Code)
	}
	if got := s2.metrics.slow.Value(); got != 0 {
		t.Errorf("slow counter = %d with log disabled", got)
	}
}

// TestRouteLabel pins the label normalizer's bounded cardinality.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/api/query":            "/api/query",
		"/api/query/federated":  "/api/query/federated",
		"/api/health":           "/api/health",
		"/metrics":              "/metrics",
		"/api/states/17":        "/api/states/{id}",
		"/api/videos/3/similar": "/api/videos/{id}/similar",
		"/api/videos/rank":      "/api/videos/rank",
		"/api/videos":           "/api/videos",
		"/api/unknown":          "other",
		"/../../etc/passwd":     "other",
	}
	for path, want := range cases {
		r := httptest.NewRequest(http.MethodGet, "http://x"+path, nil)
		r.URL.Path = path // preserve un-normalized paths
		if got := routeLabel(r); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestPanicCounter checks that recovered panics are both answered with
// 500 and counted under the 5xx class of their route.
func TestPanicCounter(t *testing.T) {
	s, err := New(Config{Model: testModel(t), Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("induced") })
	h := s.wrap(mux)
	if w := do(t, h, http.MethodGet, "/boom", ""); w.Code != http.StatusInternalServerError {
		t.Fatalf("panic route: %d, want 500", w.Code)
	}
	if got := s.metrics.panics.Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := s.metrics.requests.With("other", "5xx").Value(); got != 1 {
		t.Errorf("5xx count = %d, want 1", got)
	}
}
