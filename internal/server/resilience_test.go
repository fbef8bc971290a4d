package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/faultinject"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
)

// testLogf collects operational log lines for assertions.
type testLogf struct {
	mu    sync.Mutex
	lines []string
}

func (l *testLogf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *testLogf) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

func testModel(t testing.TB) *hmmm.Model {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 31, Videos: 5, Shots: 200, Annotated: 50, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func resilientServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Model == nil {
		cfg.Model = testModel(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestPanicRecovery is the headline crash-containment property: a
// panicking handler costs that request a 500 and a logged stack trace,
// and the very next request on the same server is served normally.
func TestPanicRecovery(t *testing.T) {
	logs := &testLogf{}
	s, err := New(Config{Model: testModel(t), Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/panic", faultinject.PanicHandler("induced failure"))
	mux.HandleFunc("/api/query", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	ts := httptest.NewServer(s.wrap(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatalf("panicking handler killed the connection: %v", err)
	}
	var e ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic status = %d, want 500", resp.StatusCode)
	}
	if err != nil || e.Error == "" {
		t.Errorf("panic response not a JSON error envelope: %v %+v", err, e)
	}
	if !logs.contains("PANIC") || !logs.contains("induced failure") {
		t.Errorf("panic not logged with its value: %v", logs.lines)
	}

	resp2, err := http.Get(ts.URL + "/api/query")
	if err != nil {
		t.Fatalf("request after panic failed: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("request after panic = %d, want 200: process must survive", resp2.StatusCode)
	}
}

// TestRequestBodyLimit: an oversized body gets 413, and the limit is
// per-config.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := resilientServer(t, Config{MaxRequestBytes: 256})
	big := fmt.Sprintf(`{"pattern": %q}`, strings.Repeat("goal -> ", 200)+"goal")
	resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
	var e ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&e) != nil || !strings.Contains(e.Error, "256") {
		t.Errorf("413 error should name the limit: %+v", e)
	}

	// The whole body counts: a valid object followed by bytes past the
	// cap is oversized too, not a success on its first value.
	padded := `{"pattern":"goal"}` + strings.Repeat(" ", 300)
	resp, err = http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("padded body status = %d, want 413", resp.StatusCode)
	}
	// Trailing whitespace within the cap is still one JSON value.
	resp, err = http.Post(ts.URL+"/api/query", "application/json", strings.NewReader(`{"pattern":"goal"}`+" \n\t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing-whitespace body status = %d, want 200", resp.StatusCode)
	}
}

// countingTail is a request body: a prefix, then an endless run of one
// byte. It counts what the handler read of it.
type countingTail struct {
	prefix string
	fill   byte
	read   int
}

func (c *countingTail) Read(p []byte) (int, error) {
	n := copy(p, c.prefix)
	c.prefix = c.prefix[n:]
	for i := n; i < len(p); i++ {
		p[i] = c.fill
	}
	c.read += len(p)
	return len(p), nil
}

// TestUncappedBodyTrailingStream: with the body cap disabled, a valid
// object followed by an endless stream is rejected at the stream's first
// byte instead of being read, and buffered, until the client stops.
func TestUncappedBodyTrailingStream(t *testing.T) {
	s, err := New(Config{Model: testModel(t), MaxRequestBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	body := &countingTail{prefix: `{"pattern":"goal"}`, fill: 'x'}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/query", body))
	if w.Code != http.StatusBadRequest {
		t.Errorf("object + endless tail status = %d, want 400: %s", w.Code, w.Body)
	}
	if body.read > 64<<10 {
		t.Errorf("handler read %d bytes of the tail before rejecting it", body.read)
	}
	if code, out := serve(s.Handler(), http.MethodPost, "/api/query",
		[]byte(`{"pattern":"goal"}`+strings.Repeat(" ", 1<<20))); code != http.StatusOK {
		t.Errorf("object + 1 MiB of whitespace status = %d, want 200: %s", code, out)
	}
}

// TestErrorPaths drives every client-error route through the full
// middleware stack and asserts the status and JSON envelope.
func TestErrorPaths(t *testing.T) {
	_, ts := resilientServer(t, Config{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"query malformed json", "POST", "/api/query", "{not json", http.StatusBadRequest},
		{"query unknown event", "POST", "/api/query", `{"pattern":"not_an_event"}`, http.StatusBadRequest},
		{"query empty pattern", "POST", "/api/query", `{"pattern":""}`, http.StatusBadRequest},
		{"query empty body", "POST", "/api/query", "", http.StatusBadRequest},
		{"query trailing garbage", "POST", "/api/query", `{"pattern":"goal"}xyz`, http.StatusBadRequest},
		{"query second value", "POST", "/api/query", `{"pattern":"goal"} {}`, http.StatusBadRequest},
		{"rank trailing garbage", "POST", "/api/videos/rank", `{"pattern":"goal"}]`, http.StatusBadRequest},
		{"feedback trailing garbage", "POST", "/api/feedback", `{"states":[0]}0`, http.StatusBadRequest},
		{"parse malformed json", "POST", "/api/parse", "{", http.StatusBadRequest},
		{"rank malformed json", "POST", "/api/videos/rank", "]", http.StatusBadRequest},
		{"feedback malformed json", "POST", "/api/feedback", "{bad", http.StatusBadRequest},
		{"feedback unknown states", "POST", "/api/feedback", `{"states":[99999]}`, http.StatusBadRequest},
		{"feedback empty states", "POST", "/api/feedback", `{"states":[]}`, http.StatusBadRequest},
		{"state out of range", "GET", "/api/states/99999", "", http.StatusNotFound},
		{"state non-numeric", "GET", "/api/states/abc", "", http.StatusBadRequest},
		{"similar unknown video", "GET", "/api/videos/999/similar", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			var e ErrorResponse
			if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
				t.Errorf("error body is not the JSON envelope")
			}
		})
	}
}

// TestQueryTimeoutReturnsPartial: a query whose deadline expires
// mid-traversal answers 200 with the matches ranked so far and
// cost.truncated set, instead of 504 or running to completion.
func TestQueryTimeoutReturnsPartial(t *testing.T) {
	slow := &faultinject.SlowTracer{PerEvent: time.Millisecond}
	_, ts := resilientServer(t, Config{
		Model:   testModel(t),
		Options: retrieval.Options{Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow},
	})
	cl := client.New(ts.URL, nil)
	start := time.Now()
	resp, err := cl.Query(context.Background(), QueryRequest{Pattern: "goal -> free_kick", TimeoutMS: 1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("timed-out query must still answer 200: %v", err)
	}
	if !resp.Cost.Truncated {
		t.Error("cost.truncated not set on an expired query")
	}
	if elapsed > 2*time.Second {
		t.Errorf("1ms-deadline query took %v", elapsed)
	}
	for i := 1; i < len(resp.Matches); i++ {
		if resp.Matches[i].Score > resp.Matches[i-1].Score {
			t.Error("partial matches not ranked")
		}
	}
}

// TestServerQueryTimeoutClampsRequest: the request may only tighten the
// configured ceiling. A huge timeout_ms against a tiny server ceiling
// still truncates.
func TestServerQueryTimeoutClampsRequest(t *testing.T) {
	slow := &faultinject.SlowTracer{PerEvent: time.Millisecond}
	_, ts := resilientServer(t, Config{
		Model:        testModel(t),
		Options:      retrieval.Options{Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow},
		QueryTimeout: time.Millisecond,
	})
	cl := client.New(ts.URL, nil)
	resp, err := cl.Query(context.Background(), QueryRequest{Pattern: "goal -> free_kick", TimeoutMS: 600000})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cost.Truncated {
		t.Error("server ceiling did not clamp the request timeout")
	}
}

// TestTruncatedQuerySkipsLaterPatterns: once one compiled pattern comes
// back truncated, the spent deadline would return every later
// alternation branch empty, so the server does not search them.
func TestTruncatedQuerySkipsLaterPatterns(t *testing.T) {
	m := testModel(t)
	req := QueryRequest{Pattern: "goal -> free_kick | foul", TimeoutMS: 1}
	fast, fts := resilientServer(t, Config{Model: m})
	if _, err := client.New(fts.URL, nil).Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := fast.metrics.retrieval.Queries.Value(); got != 2 {
		t.Fatalf("an untruncated two-branch query ran %d searches, want 2", got)
	}

	slow := &faultinject.SlowTracer{PerEvent: time.Millisecond}
	s, ts := resilientServer(t, Config{
		Model:   m,
		Options: retrieval.Options{Beam: 8, TopK: 10, CrossVideo: true, Tracer: slow},
	})
	resp, err := client.New(ts.URL, nil).Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cost.Truncated {
		t.Fatal("cost.truncated not set on an expired query")
	}
	if got := s.metrics.retrieval.Queries.Value(); got != 1 {
		t.Errorf("a query truncated in its first branch ran %d searches, want 1", got)
	}
}

// blockTracer parks every lattice trace event until the release channel
// closes: the way the shedding and shutdown tests hold queries in
// flight deterministically.
type blockTracer struct {
	release chan struct{}
}

func (b *blockTracer) Event(retrieval.TraceEvent) { <-b.release }

// waitInflight polls the server's admission counter until n requests
// are being served.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.inflight.Value() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d in-flight requests (at %d)", n, s.metrics.inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoadShedding: with MaxInflight 1 and one query parked in the
// lattice, the next request is shed with 503 + Retry-After while the
// health endpoint keeps answering 200.
func TestLoadShedding(t *testing.T) {
	gate := &blockTracer{release: make(chan struct{})}
	s, ts := resilientServer(t, Config{
		Model:       testModel(t),
		Options:     retrieval.Options{Beam: 4, TopK: 5, Tracer: gate},
		MaxInflight: 1,
	})

	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/api/query", "application/json",
			strings.NewReader(`{"pattern":"goal"}`))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitInflight(t, s, 1)

	shed, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"pattern":"goal"}`))
	if err != nil {
		t.Fatal(err)
	}
	shed.Body.Close()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("second request status = %d, want 503", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}

	health, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var hr api.HealthResponse
	if err := json.NewDecoder(health.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK || !hr.Ready {
		t.Errorf("health must bypass admission under overload: %d %+v", health.StatusCode, hr)
	}
	if hr.Inflight < 1 || hr.MaxInflight != 1 {
		t.Errorf("health inflight report: %+v", hr)
	}

	close(gate.release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("parked query finished with %d, want 200", code)
	}
}

// TestHealthDraining: BeginDrain flips readiness off with a 503 while
// the process stays alive.
func TestHealthDraining(t *testing.T) {
	s, ts := resilientServer(t, Config{})
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining health status = %d, want 503", resp.StatusCode)
	}
	if hr.Ready || hr.Status != "draining" {
		t.Errorf("draining health body: %+v", hr)
	}
}

// TestPersistFailureSurfacesWithoutCorruption: an injected disk failure
// during the retrain's log persist yields a 500, the old model keeps
// serving (generation unchanged), the pending feedback is not lost, and
// the disk holds no partial file. Clearing the fault and retrying
// succeeds.
func TestPersistFailureSurfacesWithoutCorruption(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "feedback.log")
	fs := &faultinject.FS{}
	injected := errors.New("injected disk failure")
	fs.FailAfter(faultinject.OpSync, 0, injected)

	s, ts := resilientServer(t, Config{
		Model:            testModel(t),
		RetrainThreshold: 1, // every feedback triggers a retrain
		FeedbackLogPath:  logPath,
		FS:               fs,
	})
	cl := client.New(ts.URL, nil)

	_, err := cl.Feedback(context.Background(), []int{0, 1})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("persist failure must surface as 500, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "injected") {
		t.Errorf("500 should carry the cause: %q", apiErr.Message)
	}
	if gen := s.current.Load().gen; gen != 1 {
		t.Errorf("generation advanced to %d despite failed persist", gen)
	}
	if pending := s.log.Pending(); pending != 1 {
		t.Errorf("pending = %d after failed retrain, want 1 (mark preserved)", pending)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Errorf("failed persist left %s on disk: %v", logPath, err)
	}
	if _, err := os.Stat(logPath + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed persist leaked a temp file: %v", err)
	}

	fs.Reset()
	resp, err := cl.Retrain(context.Background())
	if err != nil {
		t.Fatalf("retry after clearing fault: %v", err)
	}
	if !resp.Retrained || resp.Pending != 0 {
		t.Errorf("retry response: %+v", resp)
	}
	if gen := s.current.Load().gen; gen != 2 {
		t.Errorf("generation = %d after successful retrain, want 2", gen)
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Errorf("log not persisted after retry: %v", err)
	}
}

// TestCorruptLogRecoveredAtStartup: flipping bytes in the persisted log
// is detected by the checksum, and startup falls back to the .bak
// previous version with a warning instead of failing or silently
// serving garbage.
func TestCorruptLogRecoveredAtStartup(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "feedback.log")
	m := testModel(t)

	_, ts := resilientServer(t, Config{Model: m, FeedbackLogPath: logPath})
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	// Two persists so the second leaves the first as .bak.
	if _, err := cl.Feedback(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Feedback(ctx, []int{1, 2}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	logs := &testLogf{}
	s2, err := New(Config{Model: m, FeedbackLogPath: logPath, Logf: logs.logf})
	if err != nil {
		t.Fatalf("corrupt log must not fail startup: %v", err)
	}
	if !logs.contains("WARNING") {
		t.Errorf("recovery did not warn: %v", logs.lines)
	}
	if got := s2.log.Len(); got != 1 {
		t.Errorf("recovered log holds %d patterns, want 1 (the .bak version)", got)
	}
}

// TestAllCandidatesCorruptStartsEmpty: when the log, its temp, and its
// backup are all garbage, the server still boots — with an empty log
// and a loud warning.
func TestAllCandidatesCorruptStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "feedback.log")
	for _, p := range []string{logPath, logPath + ".tmp", logPath + ".bak"} {
		if err := os.WriteFile(p, []byte("not a log at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	logs := &testLogf{}
	s, err := New(Config{Model: testModel(t), FeedbackLogPath: logPath, Logf: logs.logf})
	if err != nil {
		t.Fatalf("fully corrupt log state must not fail startup: %v", err)
	}
	if s.log.Len() != 0 {
		t.Errorf("log not empty: %d", s.log.Len())
	}
	if !logs.contains("WARNING") {
		t.Errorf("no warning logged: %v", logs.lines)
	}
}

// TestShutdownUnderLoad: with queries parked mid-lattice, Shutdown
// flips readiness, waits for them to finish, and persists the feedback
// log; every in-flight query completes with 200.
func TestShutdownUnderLoad(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "feedback.log")
	gate := &blockTracer{release: make(chan struct{})}
	s, err := New(Config{
		Model:           testModel(t),
		Options:         retrieval.Options{Beam: 4, TopK: 5, Tracer: gate},
		FeedbackLogPath: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	cl := client.New(base, nil)
	if _, err := cl.Feedback(context.Background(), []int{0, 1}); err != nil {
		t.Fatal(err)
	}

	const parked = 3
	codes := make(chan int, parked)
	for i := 0; i < parked; i++ {
		go func() {
			resp, err := http.Post(base+"/api/query", "application/json",
				strings.NewReader(`{"pattern":"goal"}`))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitInflight(t, s, parked)

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate.release)
	}()
	if err := s.Shutdown(hs, 10*time.Second); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	for i := 0; i < parked; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("in-flight query finished with %d, want 200 (drained, not dropped)", code)
		}
	}
	if !s.draining.Load() {
		t.Error("server not marked draining after Shutdown")
	}
	if _, err := os.Stat(logPath); err != nil {
		t.Errorf("feedback log not persisted on shutdown: %v", err)
	}
}
