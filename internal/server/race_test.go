package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// TestConcurrentQueryFeedbackRetrain hammers /api/query from several
// goroutines while /api/feedback (with auto-retrain enabled) and manual
// /api/retrain run concurrently. Under -race this is the tentpole's
// stall-free-serving check: with copy-on-write snapshots no request may
// fail, and every query must be served by a self-consistent snapshot.
// The published invariant is checked directly too: the snapshot's
// engine is always the one built from the snapshot's model, and never
// stale relative to it (the pair is immutable after publication).
func TestConcurrentQueryFeedbackRetrain(t *testing.T) {
	s, ts := testServer(t, 3) // low threshold: feedback triggers retrains
	defer ts.Close()

	// A valid single-state pattern to feed back, from a warm-up query.
	warm := postJSON(t, ts.URL+"/api/query", QueryRequest{Pattern: "foul", TopK: 3})
	var qr api.QueryResponse
	if err := json.Unmarshal(warm, &qr); err != nil || len(qr.Matches) == 0 {
		t.Fatalf("warm-up query failed: %v (%s)", err, warm)
	}
	fbStates := qr.Matches[0].States

	const (
		queryWorkers   = 4
		queriesPerW    = 40
		feedbackCalls  = 30
		manualRetrains = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, queryWorkers*queriesPerW+feedbackCalls+manualRetrains)

	post := func(path string, body any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, payload)
		}
		return nil
	}

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPerW; i++ {
				if err := post("/api/query", QueryRequest{Pattern: "goal -> free_kick", TopK: 5}); err != nil {
					errs <- err
					return
				}
				// The invariant the atomic swap guarantees: whatever
				// generation is published right now, its engine was built
				// from exactly its model.
				snap := s.current.Load()
				if snap.engine.Model() != snap.model {
					errs <- fmt.Errorf("snapshot engine/model mismatch")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < feedbackCalls; i++ {
			if err := post("/api/feedback", FeedbackRequest{States: fbStates}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < manualRetrains; i++ {
			if err := post("/api/retrain", nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles the published model must still be valid.
	if err := s.current.Load().model.Validate(1e-6); err != nil {
		t.Errorf("final published model invalid: %v", err)
	}
}

// postJSON posts a JSON body and returns the raw 200 response.
func postJSON(t *testing.T, url string, body any) []byte {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, payload)
	}
	return payload
}

// TestRetrainDoesNotBlockQueries is the direct stall-free check at the
// handler layer, without HTTP: a query issued between a snapshot load
// and the concurrent retrain's publish still completes against its
// loaded generation, and the next load observes the new generation.
func TestRetrainDoesNotBlockQueries(t *testing.T) {
	s, ts := testServer(t, 0)
	defer ts.Close()

	before := s.current.Load()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/api/retrain", nil)
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("retrain: status %d: %s", w.Code, w.Body)
	}
	after := s.current.Load()
	if after == before {
		t.Fatal("retrain did not publish a new snapshot")
	}
	if before.model == after.model {
		t.Error("retrain mutated in place instead of cloning")
	}
	// The superseded generation remains fully usable: in-flight queries
	// that loaded it before the swap finish on it safely.
	q := retrieval.NewQuery(videomodel.EventFoul)
	if _, err := before.engine.Retrieve(q); err != nil {
		t.Errorf("query on superseded snapshot failed: %v", err)
	}
	if _, err := after.engine.Retrieve(q); err != nil {
		t.Errorf("query on new snapshot failed: %v", err)
	}
}
