package retrieval_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

// TestRetrieveIntoDirtyBuffer ranks every corpus query, at a large, a
// small and the default TopK, into one RankBuf that every earlier
// ranking left dirty: each Result must equal RetrieveContext's exactly.
// Every returned match's slices are capacity-clipped windows of the
// buffer, so appending to one must never write into the next match.
func TestRetrieveIntoDirtyBuffer(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 6; seed++ {
		m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: seed, Videos: int(seed) + 3})
		base, err := retrieval.NewEngine(m, retrieval.Options{CrossVideo: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		queries := append(retrievaltest.Queries(m), retrievaltest.NegationQueries(m)...)
		var buf retrieval.RankBuf
		for _, k := range []int{100, 2, 0} {
			e := base.WithOptions(retrieval.Options{TopK: k, CrossVideo: seed%2 == 0})
			for qi, q := range queries {
				label := fmt.Sprintf("seed %d K=%d query %d", seed, k, qi)
				want, err := e.RetrieveContext(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := e.RetrieveInto(ctx, q, &buf)
				if err != nil {
					t.Fatalf("%s: into: %v", label, err)
				}
				if !reflect.DeepEqual(got, *want) {
					t.Fatalf("%s: RetrieveInto a dirty buffer = %+v, RetrieveContext = %+v", label, got, *want)
				}
				for i := range got.Matches {
					mt := &got.Matches[i]
					_ = append(mt.States, -1)
					_ = append(mt.Shots, -1)
					_ = append(mt.Videos, -1)
					_ = append(mt.Weights, -1)
				}
				if !reflect.DeepEqual(got, *want) {
					t.Fatalf("%s: an append to one match's slices wrote into another's", label)
				}
			}
		}
	}
}
