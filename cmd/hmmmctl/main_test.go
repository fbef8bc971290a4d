package main

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/videodb/hmmm/internal/api"
)

// TestRenderStatsOmitsMissingSections decodes a stats payload as an old
// server would send it — no runtime lanes, no coalesce counters, no
// coord — and checks the report omits those blocks instead
// of printing them zero-valued. During a rolling rollout one hmmmctl
// speaks to binaries of several ages; a zero-valued "lanes" block on a
// server that has no lanes reads as an outage that isn't happening.
func TestRenderStatsOmitsMissingSections(t *testing.T) {
	old := `{
		"videos": 5, "states": 50, "concepts": 14, "features": 12,
		"distinct_patterns": 0, "pending_feedback": 0,
		"event_counts": {"goal": 3},
		"runtime": {
			"uptime_seconds": 10, "requests": 4, "qps": 0.4,
			"query_p50_ms": 1, "query_p95_ms": 2, "query_p99_ms": 3,
			"sim_cache_hit_rate": 0.5, "inflight": 0, "shed": 0,
			"panics": 0, "slow_queries": 0, "truncated_queries": 0,
			"model_generation": 1, "retrains": 0, "retrain_failures": 0,
			"persist_failures": 0
		}
	}`
	var st api.StatsResponse
	if err := json.Unmarshal([]byte(old), &st); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderStats(&b, &st)
	out := b.String()
	for _, banned := range []string{"lanes", "coalesce", "coordinator"} {
		if strings.Contains(out, banned) {
			t.Errorf("old-server stats render contains %q block:\n%s", banned, out)
		}
	}
	for _, wanted := range []string{"videos:", "runtime:", "model generation: 1", "events:"} {
		if !strings.Contains(out, wanted) {
			t.Errorf("stats render missing %q:\n%s", wanted, out)
		}
	}
}

// TestRenderStatsIgnoresRemovedSections decodes a payload from a server
// that still reports the per-shard "shards" section in-process sharding
// used to add: the stats decode and render as before, without that
// block.
func TestRenderStatsIgnoresRemovedSections(t *testing.T) {
	old := `{
		"videos": 5, "states": 50, "concepts": 14, "features": 12,
		"event_counts": {"goal": 3},
		"shards": [{"shard": 0, "videos": 3, "states": 30}, {"shard": 1, "videos": 2, "states": 20}]
	}`
	var st api.StatsResponse
	if err := json.Unmarshal([]byte(old), &st); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderStats(&b, &st)
	out := b.String()
	if strings.Contains(out, "shard") {
		t.Errorf("stats render shows the removed shards section:\n%s", out)
	}
	if !strings.Contains(out, "videos:") || !strings.Contains(out, "events:") {
		t.Errorf("stats render lost the model section:\n%s", out)
	}
}

// TestRenderStatsShowsPresentSections is the other direction: a new
// server reporting every section gets every block rendered.
func TestRenderStatsShowsPresentSections(t *testing.T) {
	st := &api.StatsResponse{
		Videos: 5, States: 50,
		EventCounts: map[string]int{"goal": 3},
		Runtime: &api.RuntimeStatsJSON{
			CoalesceRequests: 10, CoalesceHits: 4, CoalesceHitRate: 0.4,
			Lanes: &api.LanesJSON{FastLaneCost: 1000},
		},
		Coord: &api.CoordStatsJSON{
			Shards: 2, Queries: 7, DegradedQueries: 1, Retries: 2,
			Endpoints: []api.CoordEndpointJSON{
				{Shard: 0, Addr: "127.0.0.1:9000", State: "healthy", Generation: 1},
				{Shard: 1, Addr: "127.0.0.1:9001", State: "ejected", ConsecutiveErrors: 3},
			},
		},
	}
	var b strings.Builder
	renderStats(&b, st)
	out := b.String()
	for _, wanted := range []string{
		"coalesce:", "lanes (fast at cost <= 1000)",
		"coordinator (2 remote shards)", "ejected", "consecutive_errors=3",
	} {
		if !strings.Contains(out, wanted) {
			t.Errorf("full stats render missing %q:\n%s", wanted, out)
		}
	}
}
