package shard

import (
	"fmt"
	"testing"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

// TestGroupOrderMemoBitIdentical checks the per-shard Step-2 order memos
// through the scatter-gather path: a warm group — first a miss on every
// shard, then hits, including on a WithOptions-derived group sharing the
// engines' caches — returns the matches and aggregate Cost of a freshly
// built group (empty memos) for every shard count.
func TestGroupOrderMemoBitIdentical(t *testing.T) {
	for _, d := range retrievaltest.Domains() {
		m := retrievaltest.RandomModel(t, retrievaltest.Config{
			Seed: 31, Videos: 9, MaxShots: 10, Events: d.NumEvents(), Domain: d, LearnP12: true,
		})
		qs := append(retrievaltest.Queries(m), retrievaltest.NegationQueries(m)...)
		opts := retrieval.Options{AnnotatedOnly: true, TopK: 10, Beam: 10}
		narrow := retrieval.Options{AnnotatedOnly: true, TopK: 3, Beam: 1, StopAfterMatches: true}
		for _, k := range shardCounts {
			warm, err := NewGroup(m, k, opts, GroupOptions{})
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			for qi, q := range qs {
				for _, o := range []retrieval.Options{opts, narrow} {
					fresh, err := NewGroup(m, k, o, GroupOptions{})
					if err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					want, err := fresh.Retrieve(q)
					if err != nil {
						t.Fatal(err)
					}
					derived := warm.WithOptions(o)
					for pass := 0; pass < 3; pass++ {
						got, err := derived.Retrieve(q)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("domain=%s k=%d q=%d beam=%d pass=%d", d.Name, k, qi, o.Beam, pass)
						retrievaltest.RequireSameMatches(t, label, want.Matches, got.Matches)
						if want.Cost != got.Cost {
							t.Fatalf("%s: cost %+v, want %+v", label, got.Cost, want.Cost)
						}
					}
				}
			}
		}
	}
}
