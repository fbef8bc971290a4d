package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/faultinject"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
)

func testLaneController(fastCost, fastSlots, heavySlots, queueCap int) *laneController {
	return newLaneController(fastCost, fastSlots, heavySlots, queueCap,
		newServerMetrics(obs.NewRegistry()))
}

// TestLaneClassification: the cost threshold routes to the right lane,
// and a saturated heavy lane never delays a cheap query.
func TestLaneClassification(t *testing.T) {
	lc := testLaneController(10, 2, 1, 4)

	// Saturate the heavy lane.
	relHeavy, err := lc.admit(context.Background(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lc.heavy.inflight.Value(); got != 1 {
		t.Fatalf("heavy inflight = %d, want 1", got)
	}

	// Cheap queries admit instantly regardless.
	start := time.Now()
	relFast, err := lc.admit(context.Background(), 10, 0)
	if err != nil {
		t.Fatalf("fast-lane admit failed behind heavy congestion: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("fast-lane admit took %v behind heavy congestion", d)
	}
	if got := lc.fast.inflight.Value(); got != 1 {
		t.Fatalf("fast inflight = %d, want 1", got)
	}
	relFast.release()
	relHeavy.release()
	if lc.fast.inflight.Value() != 0 || lc.heavy.inflight.Value() != 0 {
		t.Error("release did not drain the inflight gauges")
	}
}

// TestHeavyQueueFullShedsImmediately: with the heavy slot and every
// queue position taken, the next heavy query is rejected without
// waiting.
func TestHeavyQueueFullShedsImmediately(t *testing.T) {
	lc := testLaneController(10, 1, 1, 1)
	slot, err := lc.admit(context.Background(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slot.release()

	// One waiter occupies the single queue slot.
	waiter := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_, err := lc.admit(ctx, 100, 0)
		waiter <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for lc.queued.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err = lc.admit(context.Background(), 100, 0)
	var shed *shedError
	if !errors.As(err, &shed) {
		t.Fatalf("queue-full admit err = %v, want *shedError", err)
	}
	if shed.retryAfter < 1 {
		t.Errorf("retryAfter = %d, want >= 1", shed.retryAfter)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("queue-full shed took %v, want immediate", d)
	}
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if lc.queued.Value() != 0 {
		t.Errorf("queued gauge = %d after drain, want 0", lc.queued.Value())
	}
}

// TestQueuedShedBeforeDeadline: a queued heavy query with an execution
// budget is shed after half the budget — the 503 + Retry-After reaches
// the client while its deadline is still comfortably live, instead of a
// useless answer arriving after it expired in queue.
func TestQueuedShedBeforeDeadline(t *testing.T) {
	lc := testLaneController(10, 1, 1, 4)
	slot, err := lc.admit(context.Background(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slot.release()

	const budget = 400 * time.Millisecond
	start := time.Now()
	_, err = lc.admit(context.Background(), 100, budget)
	elapsed := time.Since(start)
	var shed *shedError
	if !errors.As(err, &shed) {
		t.Fatalf("queued admit err = %v, want *shedError", err)
	}
	if elapsed >= budget {
		t.Errorf("shed after %v — the %v deadline had already expired in queue", elapsed, budget)
	}
	if elapsed < budget/4 {
		t.Errorf("shed after only %v: the waiter never really queued", elapsed)
	}
}

// TestLaneShedding503: end-to-end — everything classified heavy, one
// slot and one queue position; the third concurrent query gets 503 +
// Retry-After while health (with lane stats) and the parked queries
// survive.
func TestLaneShedding503(t *testing.T) {
	gate := &blockTracer{release: make(chan struct{})}
	s, ts := resilientServer(t, Config{
		Model:        testModel(t),
		Options:      retrieval.Options{Beam: 4, TopK: 5, Tracer: gate},
		MaxInflight:  4,
		FastLaneCost: 1, // every real query estimates above 1: all heavy
		HeavyQueue:   1,
	})
	if cap(s.lanes.heavy.slots) != 1 {
		t.Fatalf("heavy slots = %d, want 1 (quarter of MaxInflight)", cap(s.lanes.heavy.slots))
	}

	done := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/api/query", "application/json",
			strings.NewReader(`{"pattern":"goal"}`))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}
	// First query parks in the lattice holding the only heavy slot.
	go post()
	waitInflight(t, s, 1)
	// Second queues.
	go post()
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.laneQueued.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third: queue full, immediate 503.
	shed, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"pattern":"goal"}`))
	if err != nil {
		t.Fatal(err)
	}
	shed.Body.Close()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("queue-full request status = %d, want 503", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("lane 503 missing Retry-After")
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
	if hr.Lanes == nil {
		t.Fatal("health missing lane stats with lanes enabled")
	}
	if hr.Lanes.Heavy.Inflight != 1 || hr.Lanes.Heavy.Queued != 1 || hr.Lanes.Heavy.Shed != 1 {
		t.Errorf("health heavy lane = %+v, want inflight 1, queued 1, shed 1", hr.Lanes.Heavy)
	}
	if hr.Lanes.Heavy.QueueCap != 1 || hr.Lanes.Fast.Capacity != 3 {
		t.Errorf("lane capacities = %+v / %+v", hr.Lanes.Heavy, hr.Lanes.Fast)
	}

	close(gate.release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("parked query %d finished with %d, want 200", i, code)
		}
	}
	if s.lanes.heavy.inflight.Value() != 0 || s.metrics.laneQueued.Value() != 0 {
		t.Error("lane gauges did not drain")
	}
}

// countTracer counts lattice trace events (to calibrate the slow tracer
// below against the actual event volume of the test query).
type countTracer struct{ n atomic.Int64 }

func (c *countTracer) Event(retrieval.TraceEvent) { c.n.Add(1) }

// TestDeadlineStartsAfterAdmission pins the queued-deadline accounting:
// a heavy query that spends a long stretch waiting for a slot still gets
// its full execution budget once admitted. The query is tuned (via a
// per-event delay calibrated to the real event count) to need ~70% of
// the budget in pure execution; burning the ~45% queue wait against the
// same budget would force truncation, so an untruncated 200 proves the
// deadline started after admission.
func TestDeadlineStartsAfterAdmission(t *testing.T) {
	model := testModel(t)
	const pattern = "goal -> free_kick"

	// Calibrate: count this query's trace events on an identical engine.
	counter := &countTracer{}
	eng, err := retrieval.NewEngine(model, retrieval.Options{
		Beam: 4, TopK: 5, AnnotatedOnly: true, Tracer: counter,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := matn.CompileString(pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := eng.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	events := counter.n.Load()
	if events == 0 {
		t.Fatal("calibration query produced no trace events")
	}

	const (
		budget    = time.Second
		queueWait = 450 * time.Millisecond // < budget/2, so no pre-shed
		execShare = 700 * time.Millisecond // ~70% of budget in pure sleep
	)
	slow := &faultinject.SlowTracer{PerEvent: execShare / time.Duration(events)}
	s, ts := resilientServer(t, Config{
		Model:        model,
		Options:      retrieval.Options{Beam: 4, TopK: 5, Tracer: slow},
		QueryTimeout: budget,
		MaxInflight:  4,
		FastLaneCost: 1, // all heavy
	})

	// Occupy the only heavy slot directly, park the query in the queue
	// for queueWait, then hand the slot over.
	s.lanes.heavy.slots <- struct{}{}
	go func() {
		time.Sleep(queueWait)
		<-s.lanes.heavy.slots
	}()

	cl := client.New(ts.URL, nil)
	start := time.Now()
	resp, err := cl.Query(context.Background(), api.QueryRequest{Pattern: pattern})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
	if elapsed < queueWait {
		t.Fatalf("query finished in %v — it never actually queued", elapsed)
	}
	if resp.Cost.Truncated {
		t.Errorf("queued query truncated after %v: queue wait burned the execution budget "+
			"(deadline must start after admission)", elapsed)
	}
}

// TestShedRetryAfterSpread pins the jitter on the 503 Retry-After hint:
// synchronized clients shed in the same overload instant must receive a
// spread of re-arrival hints, not one value that re-creates the herd.
func TestShedRetryAfterSpread(t *testing.T) {
	seen := make(map[int]int)
	for i := 0; i < 200; i++ {
		v := shedRetryAfter()
		if v < 1 || v > 3 {
			t.Fatalf("shedRetryAfter() = %d, want within [1, 3]", v)
		}
		seen[v]++
	}
	if len(seen) < 2 {
		t.Fatalf("200 shed hints collapsed to one value %v — no spread", seen)
	}
}

// TestShedErrorsCarryJitteredHint drives both shed paths — heavy queue
// full and lane saturated — and checks the shedError hints stay in the
// jitter range (the handler forwards them verbatim as Retry-After).
func TestShedErrorsCarryJitteredHint(t *testing.T) {
	lc := testLaneController(10, 1, 1, 1)

	// Saturate the heavy slot and the single queue position.
	relHeavy, err := lc.admit(context.Background(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer relHeavy.release()
	lc.queue <- struct{}{}
	defer func() { <-lc.queue }()

	for i := 0; i < 20; i++ {
		_, err := lc.admit(context.Background(), 100, 0)
		var shed *shedError
		if !errors.As(err, &shed) {
			t.Fatalf("full heavy queue returned %v, want *shedError", err)
		}
		if shed.retryAfter < 1 || shed.retryAfter > 3 {
			t.Fatalf("heavy-queue shed Retry-After = %d, want within [1, 3]", shed.retryAfter)
		}
	}

	// Saturate the fast lane; a tiny budget makes the slot wait shed fast.
	relFast, err := lc.admit(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer relFast.release()
	for i := 0; i < 5; i++ {
		_, err := lc.admit(context.Background(), 1, 2*time.Millisecond)
		var shed *shedError
		if !errors.As(err, &shed) {
			t.Fatalf("saturated fast lane returned %v, want *shedError", err)
		}
		if shed.retryAfter < 1 || shed.retryAfter > 3 {
			t.Fatalf("fast-lane shed Retry-After = %d, want within [1, 3]", shed.retryAfter)
		}
	}
}
