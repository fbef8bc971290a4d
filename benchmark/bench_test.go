package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.95, 48}, {1, 50},
	} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single-element percentile = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty percentile = %v, want NaN", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	// The set-up median: an outlier cold start must not move it.
	setups := []float64{0.0021, 0.0020, 0.0450, 0.0019, 0.0022}
	if got := median(setups); !near(got, 0.0021) {
		t.Errorf("median = %v, want 0.0021", got)
	}
	if setups[2] != 0.0450 {
		t.Error("median sorted its input in place")
	}
	// Quartiles of 1..9 are 3 and 7, the median 5.
	if got := spread([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}); !near(got, 0.8) {
		t.Errorf("spread = %v, want 0.8", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSliceStats(t *testing.T) {
	// Two 1 s slices: four fast requests in the first, two slow in the
	// second, one straddling the deadline that must be dropped.
	const sec = int64(time.Second)
	samples := []sample{
		{at: sec / 10, lat: 100_000}, {at: sec / 5, lat: 200_000},
		{at: sec / 2, lat: 300_000}, {at: sec - 1, lat: 400_000},
		{at: sec, lat: 1_000_000}, {at: sec + sec/2, lat: 3_000_000},
		{at: 2 * sec, lat: 9_000_000},
	}
	p50, p95, qps := sliceStats(samples, 2*sec, 2)
	if len(p50) != 2 || !near(p50[0], 250) || !near(p50[1], 2000) {
		t.Errorf("slice p50 = %v, want [250 2000]", p50)
	}
	if len(p95) != 2 || !near(p95[0], 385) || !near(p95[1], 2900) {
		t.Errorf("slice p95 = %v, want [385 2900]", p95)
	}
	if len(qps) != 2 || !near(qps[0], 4) || !near(qps[1], 2) {
		t.Errorf("slice qps = %v, want [4 2]", qps)
	}
	// A stalled slice reports zero throughput and no latency.
	p50, _, qps = sliceStats(samples[:4], 2*sec, 2)
	if len(p50) != 1 || len(qps) != 2 || qps[1] != 0 {
		t.Errorf("stalled slice: p50 %v qps %v", p50, qps)
	}
}

func scheduleBodies(t *testing.T, seed uint64) (queries [][]byte, ingest []api.IngestRequest) {
	t.Helper()
	in, err := generateInputs(seed, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range in.schedule {
		queries = append(queries, e.body)
	}
	return queries, in.ingest
}

func TestScheduleDeterminism(t *testing.T) {
	q1, i1 := scheduleBodies(t, 1)
	q1b, i1b := scheduleBodies(t, 1)
	q2, i2 := scheduleBodies(t, 2)
	same := func(a, b [][]byte) bool {
		return bytes.Equal(bytes.Join(a, []byte{'\n'}), bytes.Join(b, []byte{'\n'}))
	}
	if !same(q1, q1b) || !reflect.DeepEqual(i1, i1b) {
		t.Error("the same seed gave different request bodies or ingest videos")
	}
	if same(q1, q2) || reflect.DeepEqual(i1, i2) {
		t.Error("different seeds gave the same request bodies or ingest videos")
	}

	in, err := generateInputs(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.schedule) != scheduleLen {
		t.Fatalf("schedule has %d entries, want %d", len(in.schedule), scheduleLen)
	}
	heavy := 0
	count := map[string]int{}
	for _, e := range in.schedule {
		if e.beam == heavyBeam {
			heavy++
		}
		count[string(e.body)]++
	}
	if heavy != numHeavy || len(in.schedule)-heavy != numCheap {
		t.Errorf("cheap/heavy split is %d/%d, want %d/%d", len(in.schedule)-heavy, heavy, numCheap, numHeavy)
	}
	// p50 and p95 each need one pattern filling a whole band.
	var bands []int
	for _, n := range count {
		if n > 1 {
			bands = append(bands, n)
		}
	}
	if len(bands) != 3 {
		t.Errorf("repeated patterns fill %v entries, want the mid pattern x4 and two heavy patterns x2", bands)
	}
	if in.ingest != nil {
		t.Error("ingest payloads generated for a read-only workload")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the tables the harness prints from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, harness has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, harness has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s[%d] %s: bound %v, harness has %v", kind, i, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestSmoke boots every deployment shape on a paper-scale archive, runs
// the correctness gate and a 2 s closed loop, and checks that each shape
// reports every metric it should — untraced, then traced.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		if traced && testing.Short() {
			continue
		}
		for _, w := range workloads {
			cfg := runConfig{
				seed: 3, trace: traced, smoke: true, outDir: t.TempDir(), log: io.Discard,
			}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, res.correct, res.attempted, res.failed, res.notes)
			}
			if !traced {
				for _, d := range endToEnd {
					if v := res.metrics[d.name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
					}
				}
				continue
			}
			want := []string{
				"server.http_roundtrip_us", "server.shell_us", "api.decode_us", "api.encode_us",
				"matn.compile_us", "retrieval.retrieve_us", "retrieval.edge_evals_per_query",
				"hmmm.build_ms", "store.load_compact_ms", "index.build_ms", "trace.overhead_ratio",
			}
			switch w.name {
			case "fleet_scatter":
				want = append(want, "coord.retrieve_us", "rpc.roundtrip_us", "rpc.service_us",
					"shard.group_retrieve_us", "shard.split_ms", "rpc.fleet_boot_ms")
			case "live_mixed":
				want = append(want, "ingest.segment_ms", "ingest.accept_p50_ms", "live.delta_build_ms",
					"live.journal_persist_ms", "live.compact_rebuild_ms", "live.delta_retrieve_us", "live.compactions")
			}
			for _, name := range want {
				if v := res.metrics[name]; !(v > 0) {
					t.Errorf("%s traced: %s = %v, want > 0", w.name, name, v)
				}
			}
			for _, name := range []string{"live.compact_failures", "server.shed", "coord.degraded_queries"} {
				if v := res.metrics[name]; v != 0 {
					t.Errorf("%s traced: %s = %v, want 0", w.name, name, v)
				}
			}
			for name := range res.metrics {
				known := false
				for _, d := range perLayer {
					known = known || d.name == name
				}
				if !known {
					t.Errorf("%s traced: metric %s is not in the per-layer table", w.name, name)
				}
			}
			raw, err := os.ReadFile(res.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []spanJSON `json:"spans"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
				t.Errorf("%s: trace file %s: %d spans, err %v", w.name, res.tracePath, len(doc.Spans), err)
			}
		}
	}
}
