package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Re-registration returns the same metric.
	if again := r.Counter("c_total", "a counter"); again.Value() != 5 {
		t.Fatalf("re-registered counter lost its value")
	}

	g := r.Gauge("g", "a gauge")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
	g.Add(-14)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var sl *SlowLog
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(7)
	g.Inc()
	g.Add(9)
	h.Observe(1)
	tr.Record("x", time.Now(), 0)
	tr.Span("y")()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Totals() != nil {
		t.Fatal("nil metrics must observe nothing")
	}
	if cv.With("a") != nil || hv.With("a") != nil {
		t.Fatal("nil vecs must yield nil children")
	}
	if ok, err := sl.Record(1, nil); ok || err != nil {
		t.Fatal("nil slow log must record nothing")
	}
	if sl.Enabled() {
		t.Fatal("nil slow log must report disabled")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "code")
	v.With("/api/query", "2xx").Add(3)
	v.With("/api/query", "5xx").Inc()
	v.With("/api/health", "2xx").Add(2)
	// Same labels return the same child.
	v.With("/api/query", "2xx").Inc()
	if got := v.With("/api/query", "2xx").Value(); got != 4 {
		t.Fatalf("child = %d, want 4", got)
	}
	if got := v.Total(); got != 7 {
		t.Fatalf("total = %d, want 7", got)
	}
}

// TestWarmWithAllocs pins a warm labelled lookup — what every HTTP
// request pays for its {route, code} counter — at zero allocations, and
// checks that a key longer than the stack buffer still finds its child.
func TestWarmWithAllocs(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "code")
	h := r.HistogramVec("req_seconds", "latency", nil, "route")
	v.With("/api/query", "2xx").Inc()
	h.With("/api/query").Observe(0.1)
	if n := testing.AllocsPerRun(100, func() {
		v.With("/api/query", "2xx").Inc()
		h.With("/api/query").Observe(0.1)
	}); n != 0 {
		t.Errorf("warm With = %v allocs, want 0", n)
	}
	long := strings.Repeat("r", 200)
	v.With(long, "2xx").Inc()
	v.With(long, "2xx").Inc()
	if got := v.With(long, "2xx").Value(); got != 2 {
		t.Fatalf("long-key child = %d, want 2", got)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("inflight", "in-flight by lane", "lane")
	v.With("fast").Add(3)
	v.With("heavy").Inc()
	v.With("fast").Dec()
	if got := v.With("fast").Value(); got != 2 {
		t.Fatalf("child = %d, want 2", got)
	}
	if got := v.With("heavy").Value(); got != 1 {
		t.Fatalf("child = %d, want 1", got)
	}
	var nilVec *GaugeVec
	if nilVec.With("fast") != nil {
		t.Fatal("nil GaugeVec must yield nil children")
	}
	nilVec.With("fast").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP inflight in-flight by lane\n# TYPE inflight gauge\n" +
		`inflight{lane="fast"} 2` + "\n" + `inflight{lane="heavy"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "h")
}

// TestExpositionGolden pins the exact Prometheus text format output for
// a deterministic registry: family ordering, label rendering, histogram
// cumulative buckets, _sum/_count, and GaugeFunc float formatting.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help").Add(2)
	v := r.CounterVec("a_total", "a help", "route", "code")
	v.With("/api/query", "2xx").Add(41)
	v.With("/api/health", "2xx").Inc()
	r.Gauge("c_inflight", "c help").Add(3)
	r.GaugeFunc("d_ratio", "d help", func() float64 { return 0.25 })
	h := r.Histogram("e_seconds", "e help", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total a help
# TYPE a_total counter
a_total{route="/api/health",code="2xx"} 1
a_total{route="/api/query",code="2xx"} 41
# HELP b_total b help
# TYPE b_total counter
b_total 2
# HELP c_inflight c help
# TYPE c_inflight gauge
c_inflight 3
# HELP d_ratio d help
# TYPE d_ratio gauge
d_ratio 0.25
# HELP e_seconds e help
# TYPE e_seconds histogram
e_seconds_bucket{le="0.1"} 2
e_seconds_bucket{le="1"} 3
e_seconds_bucket{le="+Inf"} 4
e_seconds_sum 30.6
e_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "h", "v").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

// TestRegistryRace hammers a shared registry from many goroutines —
// concurrent registration, observation, and scraping — under -race.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := r.CounterVec("race_total", "h", "worker")
			h := r.Histogram("race_seconds", "h", nil)
			g := r.Gauge("race_gauge", "h")
			for i := 0; i < 500; i++ {
				v.With(string(rune('a' + w%4))).Inc()
				h.Observe(float64(i) / 1000)
				g.Inc()
				g.Dec()
				if i%100 == 0 {
					var sb strings.Builder
					_ = r.WriteText(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterVec("race_total", "h", "worker").Total(); got != 8*500 {
		t.Fatalf("race_total = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("race_seconds", "h", nil).Count(); got != 8*500 {
		t.Fatalf("race_seconds count = %d, want %d", got, 8*500)
	}
	if got := r.Gauge("race_gauge", "h").Value(); got != 0 {
		t.Fatalf("race_gauge = %d, want 0", got)
	}
}
