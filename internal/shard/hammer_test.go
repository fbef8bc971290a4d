package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

// TestHammerQueryRetrainResplit drives a copy-on-write publish under
// -race: readers retrieve through an atomically published
// group while a writer repeatedly retrains a clone of the model,
// re-splits it, and swaps the published group. Readers must never see
// an error, a ranking longer than TopK, or a result mixing state
// indices from different generations (checked via per-generation
// engine equivalence after the swap settles).
func TestHammerQueryRetrainResplit(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 31, Videos: 8, MaxShots: 10})
	opts := retrieval.Options{AnnotatedOnly: true, TopK: 5}
	qs := retrievaltest.Queries(m)

	type published struct {
		model *hmmm.Model
		group *Group
	}
	var cur atomic.Pointer[published]
	g0, err := NewGroup(m, 3, opts, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur.Store(&published{model: m, group: g0})

	const (
		readers  = 4
		retrains = 8
		queries  = 40
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := cur.Load()
				res, err := snap.group.Retrieve(qs[i%len(qs)])
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if len(res.Matches) > 5 {
					errc <- fmt.Errorf("reader %d: %d matches, TopK=5", r, len(res.Matches))
					return
				}
				if i >= queries {
					return
				}
			}
		}(r)
	}

	// Writer: retrain a clone, re-split off to the side, publish.
	model := m
	for i := 0; i < retrains; i++ {
		pattern := mmm.AccessPattern{Freq: 1}
		for s := 0; s < model.NumStates() && len(pattern.States) < 3; s += 1 + i {
			pattern.States = append(pattern.States, s)
		}
		next, err := model.Train([]mmm.AccessPattern{pattern}, nil, hmmm.DefaultTrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		ng, err := NewGroup(next, 3, opts, GroupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(&published{model: next, group: ng})
		model = next
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After the churn settles, the surviving generation must still be
	// bit-identical to a fresh single engine over its model.
	final := cur.Load()
	eng, err := retrieval.NewEngine(final.model, opts)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		want, err := eng.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := final.group.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		retrievaltest.RequireSameMatches(t, fmt.Sprintf("post-hammer q=%d", qi), want.Matches, got.Matches)
	}
}
