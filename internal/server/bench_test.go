package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
)

// benchServer builds a server over a mid-size corpus: big enough that a
// retrain cycle (clone + train + engine rebuild) takes measurable time,
// small enough that the benchmark converges quickly.
func benchServer(b *testing.B) (*Server, http.Handler) {
	b.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 41, Videos: 20, Shots: 4000, Annotated: 240, Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	return s, s.Handler()
}

// postQuery issues one /api/query through the handler (no network) and
// fails the benchmark on any non-200.
func postQuery(b *testing.B, h http.Handler, body []byte) {
	b.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/api/query", bytes.NewReader(body))
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		b.Fatalf("query: status %d: %s", w.Code, w.Body)
	}
}

// reportP99 reports the 99th-percentile of the collected per-op
// latencies as a custom metric, which benchjson preserves in the
// trajectory's "extra" map.
func reportP99(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := (len(lat) * 99) / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	b.ReportMetric(float64(lat[idx].Nanoseconds()), "p99-ns/op")
}

// BenchmarkQueryWithMiddleware prices the resilience middleware: the
// same query through the bare route mux versus the full production
// stack (panic recovery + admission semaphore + body cap + query
// deadline). Recorded into BENCH_retrieval.json alongside F5PaperQuery
// so the per-request overhead can be read against the raw engine cost.
func BenchmarkQueryWithMiddleware(b *testing.B) {
	c, err := dataset.Build(dataset.Config{Seed: 41, Videos: 20, Shots: 4000, Annotated: 240, Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Model: m, MaxInflight: 64, QueryTimeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(QueryRequest{Pattern: "goal -> free_kick", TopK: 10})
	if err != nil {
		b.Fatal(err)
	}

	bare := http.NewServeMux()
	bare.HandleFunc("POST /api/query", s.handleQuery)
	for _, bench := range []struct {
		name string
		h    http.Handler
	}{
		{"bare-mux", bare},
		{"middleware", s.Handler()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postQuery(b, bench.h, body)
			}
		})
	}
}

// BenchmarkQueryWithObs prices the observability subsystem on the query
// hot path. "instrumented" is the full production stack with metrics
// recording on every request (metrics are always on; this is the same
// stack BenchmarkQueryWithMiddleware/middleware measured before
// instrumentation existed, so comparing the two trajectory entries
// reads off the overhead — the budget is <=5%). "slow-query-trace" adds
// the worst case on top: a per-query span trace plus one JSON line per
// query (threshold 1ns, discarded writer).
func BenchmarkQueryWithObs(b *testing.B) {
	c, err := dataset.Build(dataset.Config{Seed: 41, Videos: 20, Shots: 4000, Annotated: 240, Fast: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(QueryRequest{Pattern: "goal -> free_kick", TopK: 10})
	if err != nil {
		b.Fatal(err)
	}

	instrumented, err := New(Config{Model: m, MaxInflight: 64, QueryTimeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	traced, err := New(Config{
		Model: m, MaxInflight: 64, QueryTimeout: 10 * time.Second,
		SlowQueryThreshold: time.Nanosecond, SlowQueryWriter: io.Discard,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		h    http.Handler
	}{
		{"instrumented", instrumented.Handler()},
		{"slow-query-trace", traced.Handler()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postQuery(b, bench.h, body)
			}
		})
	}
}

// BenchmarkQueryUnderRetrain quantifies the tentpole's stall-free
// serving claim: query latency (mean and p99) with no retraining versus
// with a goroutine continuously retraining and swapping snapshots. With
// copy-on-write snapshots the two must stay close — the old coarse
// RWMutex design made every query wait out any in-flight retrain.
func BenchmarkQueryUnderRetrain(b *testing.B) {
	s, h := benchServer(b)
	body, err := json.Marshal(QueryRequest{Pattern: "goal -> free_kick", TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	// Seed feedback so retrains have patterns to train on.
	m := s.current.Load().model
	for st := 0; st+1 < m.NumStates(); st += m.NumStates() / 8 {
		if err := s.log.MarkPositive(m, []int{st, st + 1}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("baseline", func(b *testing.B) {
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			postQuery(b, h, body)
			lat = append(lat, time.Since(start))
		}
		reportP99(b, lat)
	})

	b.Run("during-retrain", func(b *testing.B) {
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				s.retrainMu.Lock()
				err := s.retrainLocked()
				s.retrainMu.Unlock()
				if err != nil {
					done <- err
					return
				}
			}
		}()
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			postQuery(b, h, body)
			lat = append(lat, time.Since(start))
		}
		b.StopTimer()
		close(stop)
		if err := <-done; err != nil {
			b.Fatalf("background retrain failed: %v", err)
		}
		reportP99(b, lat)
	})
}
