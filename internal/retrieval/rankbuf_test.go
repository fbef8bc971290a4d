package retrieval_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

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

// TestGatherReuse gathers every pair of corpus queries, as an MATN's two
// branches, through one Gather that Reset reuses with a Buf: each merged
// ranking must equal a fresh gather's, a warm gather must allocate
// nothing, and Trim must drop the buffers only past its cap.
func TestGatherReuse(t *testing.T) {
	ctx := context.Background()
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 3, Videos: 6})
	base, err := retrieval.NewEngine(m, retrieval.Options{CrossVideo: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := retrievaltest.Queries(m)
	var buf retrieval.RankBuf
	reused := retrieval.Gather{Buf: &buf}
	ranked := 0
	for _, k := range []int{100, 2} {
		e := base.WithOptions(retrieval.Options{TopK: k, CrossVideo: true})
		for i := range queries {
			pair := []retrieval.Query{queries[i], queries[(i+1)%len(queries)]}
			var fresh retrieval.Gather
			fresh.TopK = k
			if err := fresh.Search(ctx, e, pair, nil, 0); err != nil {
				t.Fatal(err)
			}
			want := fresh.Done(ctx)
			ranked += len(want.Matches)
			gather := func() retrieval.Result {
				reused.Reset(k, time.Time{})
				if err := reused.Search(ctx, e, pair, nil, 0); err != nil {
					t.Fatal(err)
				}
				return reused.Done(ctx)
			}
			if got := gather(); !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d pair %d: a reused gather = %+v, a fresh one = %+v", k, i, got, want)
			}
			if got := testing.AllocsPerRun(10, func() { gather() }); got != 0 {
				t.Errorf("K=%d pair %d: a warm gather allocates %.1f times, want 0", k, i, got)
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no pair ranked a match")
	}
	size := reused.Size()
	if size == 0 || size < buf.Size() {
		t.Fatalf("gather holds %d bytes, its Buf %d", size, buf.Size())
	}
	if reused.Trim(size); reused.Size() != size {
		t.Errorf("Trim at the gather's own size dropped storage: %d bytes left of %d", reused.Size(), size)
	}
	if reused.Trim(size - 1); reused.Size() != 0 || buf.Size() != 0 {
		t.Errorf("Trim under the gather's size kept %d bytes, its Buf %d", reused.Size(), buf.Size())
	}
}
