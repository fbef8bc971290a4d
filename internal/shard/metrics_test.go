package shard

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

func TestMetricsCountScatterGather(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 41, Videos: 6})
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	g, err := NewGroup(m, 3, retrieval.Options{AnnotatedOnly: true}, GroupOptions{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(g.NumShards())
	qs := retrievaltest.Queries(m)
	for _, q := range qs[:2] {
		if _, err := g.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := met.Queries.Value(); got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}
	if got := met.Searches.Value(); got != 2*k {
		t.Errorf("searches = %d, want %d (2 queries x %d shards)", got, 2*k, k)
	}
	if got := met.ShardSeconds.Count(); got != 2*k {
		t.Errorf("shard latency observations = %d, want %d", got, 2*k)
	}
	if got := met.ShardCount.Value(); got != int64(k) {
		t.Errorf("shard count gauge = %d, want %d", got, k)
	}
	if got := met.Truncated.Value(); got != 0 {
		t.Errorf("truncated = %d, want 0", got)
	}

	// Shards an expired request deadline stops record truncations.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := g.RetrieveContext(expired, qs[0]); err != nil {
		t.Fatal(err)
	}
	if met.Truncated.Value() == 0 {
		t.Error("expired request deadline not counted as shard truncations")
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"hmmm_shard_queries_total", "hmmm_shard_searches_total",
		"hmmm_shard_truncated_total", "hmmm_shard_retrieve_seconds",
		"hmmm_shard_count",
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

func TestGroupTraceSpans(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 42, Videos: 5})
	tr := obs.NewTrace()
	g, err := NewGroup(m, 2, retrieval.Options{AnnotatedOnly: true, Trace: tr}, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Retrieve(retrievaltest.Queries(m)[0]); err != nil {
		t.Fatal(err)
	}
	totals := tr.Totals()
	for _, stage := range []string{"scatter", "merge"} {
		if _, ok := totals[stage]; !ok {
			t.Errorf("trace missing %q span (have %v)", stage, totals)
		}
	}
}
