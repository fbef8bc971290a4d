package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// serve runs one request through h without a network and returns the
// status and body.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

func queryBody(t testing.TB, req QueryRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The allocation ceilings of one warm /api/query through the full
// middleware stack, configured as hmmmd serves by default. They count
// what the server allocates — decode, coalescing, lane admission,
// retrieval, merge, response build and encode — and not the test's
// request or response writer, whose construction varies between Go
// releases. Each is the value measured with go1.24.0 on linux/amd64
// plus 5% slack, rounded up, except the coordinator case's (see there).
const (
	// maxQueryAllocs is one linear pattern: 6 measured (19 while each
	// request ranked into fresh storage and the shell, the coalesce
	// leader and the lane release allocated per request, 26 while the
	// budget was a timer context, 46–47 before the canonical request
	// decoder and the response appender, 60–61 before the engine
	// materialized only the ranking it returns, 122–123 before the
	// pattern memo, merge skip and slab build).
	maxQueryAllocs = 7
	// maxAltQueryAllocs is an alternation whose optional step compiles
	// to several linear patterns, so the gather merges their rankings:
	// 6 measured (38 before the pooled request value, 45 while the
	// budget was a timer context, 65–66 before the request decoder and
	// response appender, 118 before the merge ran in place).
	maxAltQueryAllocs = 7
	// maxLiveQueryAllocs is the linear pattern on a server whose live
	// delta holds an ingested video, so the gather has a main child and
	// a delta child: 6 measured.
	maxLiveQueryAllocs = 7
	// maxCoordQueryAllocs is the linear pattern in coordinator mode over
	// two loopback rpc shard servers: 14 measured, of which 7 are the two
	// exchanges' cancellation watchers on the coalescer's cancelable
	// context and 1 the shard goroutine; 5% slack is less than one
	// allocation, so none is kept (27 while every shard answer decoded into fresh storage
	// and every query built its scatter request and outcomes).
	maxCoordQueryAllocs = 14
)

// sinkWriter is a ResponseWriter that keeps the status and body length
// only, so an allocation count sees the handler and not a recorder.
type sinkWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *sinkWriter) Header() http.Header         { return w.header }
func (w *sinkWriter) WriteHeader(code int)        { w.code = code }
func (w *sinkWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestQueryHandlerAllocs pins the /api/query path's allocation count so
// a regression in the shell (a per-match or per-step allocation, a
// per-request parse), in the merge of several compiled patterns or of a
// live delta, or in the coordinator's scatter fails the build rather
// than a benchmark.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	served := Config{Coalesce: true, FastLaneCost: 1000, MaxInflight: 64, QueryTimeout: 10 * time.Second}
	cfg := served
	cfg.Model = testModel(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, lts := newLiveServer(t, live.Config{LogPath: filepath.Join(t.TempDir(), "journal")}, served)
	mustIngest(t, lts, "alloc-live", 41)
	if d := ls.current.Load().delta; d.Len() == 0 {
		t.Fatal("the live server serves no delta")
	}
	cfg = served
	cfg.Model = testModel(t)
	cfg.Coordinator, _ = loopbackCoordinator(t, cfg.Model, 2)
	cs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	video := int(cfg.Model.VideoIDs[1])
	for _, c := range []struct {
		name    string
		req     QueryRequest
		h       http.Handler
		ceiling int
	}{
		{"linear", QueryRequest{Pattern: "goal -> free_kick", TopK: 10}, s.Handler(), maxQueryAllocs},
		{"scoped", QueryRequest{Pattern: "goal", TopK: 10, ScopeVideo: video}, s.Handler(), maxQueryAllocs},
		{"alternation", QueryRequest{Pattern: "goal | foul -> free_kick?", TopK: 10}, s.Handler(), maxAltQueryAllocs},
		{"live delta", QueryRequest{Pattern: "goal -> free_kick", TopK: 10}, ls.Handler(), maxLiveQueryAllocs},
		{"coordinator", QueryRequest{Pattern: "goal -> free_kick", TopK: 10}, cs.Handler(), maxCoordQueryAllocs},
	} {
		body := queryBody(t, c.req)
		// One request and one writer serve every run; the body-cap
		// middleware rewraps r.Body, so each run starts from a copy of
		// the template.
		tmpl := httptest.NewRequest(http.MethodPost, "/api/query", nil)
		rd := bytes.NewReader(body)
		rc := io.NopCloser(rd)
		w := &sinkWriter{header: make(http.Header)}
		req := new(http.Request)
		run := func() {
			rd.Reset(body)
			*req = *tmpl
			req.Body = rc
			clear(w.header)
			w.code, w.n = 0, 0
			c.h.ServeHTTP(w, req)
			if w.code != http.StatusOK || w.n == 0 {
				t.Fatalf("%s %q: status %d, %d body bytes", c.name, c.req.Pattern, w.code, w.n)
			}
		}
		run() // warm the pattern memo, the engine's caches and the pools
		if got := testing.AllocsPerRun(200, run); got > float64(c.ceiling) {
			t.Errorf("/api/query %s %q allocates %.1f times per request, ceiling %d (measured with go1.24.0, running %s)",
				c.name, c.req.Pattern, got, c.ceiling, runtime.Version())
		} else {
			t.Logf("/api/query %s %q allocates %.1f times per request (ceiling %d)", c.name, c.req.Pattern, got, c.ceiling)
		}
	}
}

// TestPatternMemo pins the memo's contract: a repeated pattern is served
// from the memo without re-parsing, both drop-all bounds hold, and a
// pattern too large to retain is still served correctly.
func TestPatternMemo(t *testing.T) {
	s, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	d := s.current.Load().domain
	pm := &s.patterns

	t.Run("hit does not re-parse", func(t *testing.T) {
		const pattern = "goal -> free_kick"
		body := queryBody(t, QueryRequest{Pattern: pattern, TopK: 5})
		code, first := serve(h, http.MethodPost, "/api/query", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, first)
		}
		entry := pm.entries[patternKey{domain: d, text: pattern}]
		if entry == nil {
			t.Fatal("served pattern not memoized")
		}
		if code, again := serve(h, http.MethodPost, "/api/query", body); code != http.StatusOK || !bytes.Equal(again, first) {
			t.Fatalf("repeat: status %d, body changed:\n%s\nvs\n%s", code, again, first)
		}
		if pm.entries[patternKey{domain: d, text: pattern}] != entry {
			t.Error("repeat request replaced the memo entry")
		}
		// A parse allocates; a memo hit must not.
		if n := testing.AllocsPerRun(20, func() {
			if _, err := pm.compile(pattern, d); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("memo hit allocates %.1f times: it re-parsed", n)
		}
	})

	t.Run("errors are not memoized", func(t *testing.T) {
		before := len(pm.entries)
		for i := 0; i < 2; i++ {
			if _, err := pm.compile("goal -> not_an_event", d); err == nil {
				t.Fatal("unknown event accepted")
			}
		}
		if len(pm.entries) != before {
			t.Errorf("a failed compile was memoized: %d entries, want %d", len(pm.entries), before)
		}
	})

	t.Run("entry-count bound", func(t *testing.T) {
		pm.entries, pm.bytes = nil, 0
		for i := 0; i < maxMemoPatterns; i++ {
			mustCompile(t, pm, "goal"+strings.Repeat(" ", i+1), d)
		}
		if len(pm.entries) > maxMemoPatterns {
			t.Fatalf("%d entries, bound %d", len(pm.entries), maxMemoPatterns)
		}
		full := len(pm.entries)
		mustCompile(t, pm, "foul", d)
		if len(pm.entries) >= full {
			t.Errorf("a put into a full memo kept %d entries (was %d): no drop-all", len(pm.entries), full)
		}
	})

	t.Run("byte bound", func(t *testing.T) {
		pm.entries, pm.bytes = nil, 0
		pad := strings.Repeat(" ", maxMemoPatternBytes/3)
		for i := 0; i < 8; i++ {
			mustCompile(t, pm, fmt.Sprintf("goal%s%s", strings.Repeat(" ", i), pad), d)
			if pm.bytes > maxMemoPatternBytes {
				t.Fatalf("memo holds %d pattern bytes, bound %d", pm.bytes, maxMemoPatternBytes)
			}
			if len(pm.entries) > 2 {
				t.Fatalf("%d entries of over a third of the byte bound each", len(pm.entries))
			}
		}
	})

	t.Run("over-long pattern served, not retained", func(t *testing.T) {
		mustCompile(t, pm, "foul", d)
		before := len(pm.entries)
		long := "goal -> free_kick" + strings.Repeat(" ", maxMemoPatternBytes+1)
		code, got := serve(h, http.MethodPost, "/api/query", queryBody(t, QueryRequest{Pattern: long, TopK: 5}))
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, got)
		}
		if _, ok := pm.entries[patternKey{domain: d, text: long}]; ok {
			t.Error("over-long pattern retained")
		}
		if len(pm.entries) != before {
			t.Errorf("over-long pattern disturbed the memo: %d entries, want %d", len(pm.entries), before)
		}
		_, short := serve(h, http.MethodPost, "/api/query", queryBody(t, QueryRequest{Pattern: "goal -> free_kick", TopK: 5}))
		var gotResp, wantResp api.QueryResponse
		if err := json.Unmarshal(got, &gotResp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(short, &wantResp); err != nil {
			t.Fatal(err)
		}
		gotResp.Pattern, wantResp.Pattern = "", ""
		if !reflect.DeepEqual(gotResp, wantResp) || len(gotResp.Matches) == 0 {
			t.Errorf("over-long spelling of a pattern answered differently:\n%+v\nvs\n%+v", gotResp, wantResp)
		}
	})
}

func mustCompile(t *testing.T, pm *patternMemo, text string, d *videomodel.Domain) {
	t.Helper()
	if _, err := pm.compile(text, d); err != nil {
		t.Fatalf("compile %q: %v", text, err)
	}
}

// TestPatternMemoConcurrent runs many goroutines over distinct and
// repeated patterns — more of them, and more bytes, than the memo holds,
// so drop-alls race with hits — and requires every response to be
// byte-identical to a fresh-compile response. Under -race it is also the
// memo's data-race check.
func TestPatternMemoConcurrent(t *testing.T) {
	model := testModel(t)
	fresh, err := New(Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	bases := []string{"goal", "goal -> free_kick", "foul | corner_kick", "goal -> free_kick?", "goal & !foul"}
	const distinct = 2*maxMemoPatterns + 17
	bodies := make([][]byte, distinct)
	want := make([][]byte, distinct)
	freshH := fresh.Handler()
	for i := range bodies {
		// Whitespace padding gives distinct texts of growing size, so the
		// byte bound trips as well as the entry bound.
		text := bases[i%len(bases)] + strings.Repeat(" ", 4*i)
		bodies[i] = queryBody(t, QueryRequest{Pattern: text, TopK: 1 + i%7})
		// Each text reaches the reference server once: a fresh compile.
		code, body := serve(freshH, http.MethodPost, "/api/query", bodies[i])
		if code != http.StatusOK {
			t.Fatalf("reference %d: status %d: %s", i, code, body)
		}
		want[i] = append([]byte(nil), body...)
	}

	h := s.Handler()
	const workers, perWorker = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < perWorker; n++ {
				i := rng.Intn(distinct)
				if n%2 == 1 {
					i = rng.Intn(len(bases)) // a hot, repeated few
				}
				code, body := serve(h, http.MethodPost, "/api/query", bodies[i])
				if code != http.StatusOK || !bytes.Equal(body, want[i]) {
					t.Errorf("pattern %d: status %d, body differs from a fresh compile:\n%s\nvs\n%s", i, code, body, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.patterns.bytes > maxMemoPatternBytes || len(s.patterns.entries) > maxMemoPatterns {
		t.Errorf("memo over its bounds: %d entries, %d bytes", len(s.patterns.entries), s.patterns.bytes)
	}
}

// TestAlternationIsMerged pins the other side of the merge skip: a
// pattern compiling to several linear queries is served as MergeRanked
// over every branch's ranking, deduplicated and cut to top_k.
func TestAlternationIsMerged(t *testing.T) {
	s, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.current.Load()
	const pattern, topK = "goal | foul -> free_kick?", 4
	queries, err := matn.CompileStringDomain(pattern, snap.domain)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) < 2 {
		t.Fatalf("%q compiles to %d queries; the test needs an alternation", pattern, len(queries))
	}
	engine := snap.engine.WithOptions(retrieval.Options{TopK: topK, AnnotatedOnly: true})
	var all []retrieval.Match
	for _, q := range queries {
		res, err := engine.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res.Matches...)
	}
	want := retrieval.MergeRanked(all, topK)

	code, body := serve(s.Handler(), http.MethodPost, "/api/query", queryBody(t, QueryRequest{Pattern: pattern, TopK: topK}))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp api.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != len(want) || len(want) == 0 {
		t.Fatalf("%d matches served, want %d", len(resp.Matches), len(want))
	}
	for i, m := range resp.Matches {
		if m.Score != want[i].Score || !reflect.DeepEqual(m.States, want[i].States) {
			t.Errorf("rank %d: served %v %.6g, want %v %.6g", i+1, m.States, m.Score, want[i].States, want[i].Score)
		}
	}
}
