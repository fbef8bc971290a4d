package retrieval

import (
	"reflect"
	"slices"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/xrand"
)

// greedyScan is the Step-2 walk by definition: seed with the largest-Π2
// candidate, then repeatedly take the remaining candidate with the
// largest A2(cur, v), read through At; every tie goes to the smallest
// video index. It returns the order and the A2 reads, one per remaining
// candidate per hop.
func greedyScan(m *hmmm.Model, candidates []int) ([]int, int) {
	rest := slices.Clone(candidates)
	slices.Sort(rest)
	take := func(score func(v int) float64) int {
		bi := 0
		for i, v := range rest {
			if score(v) > score(rest[bi]) {
				bi = i
			}
		}
		v := rest[bi]
		rest = slices.Delete(rest, bi, bi+1)
		return v
	}
	cur := take(func(v int) float64 { return m.Pi2[v] })
	order, reads := []int{cur}, 0
	for len(rest) > 0 {
		reads += len(rest)
		from := cur
		cur = take(func(v int) float64 { return m.A2.At(from, v) })
		order = append(order, cur)
	}
	return order, reads
}

// TestGreedyOrderMatchesScan: on an untrained model — every A2 row
// uniform, so each hop takes the fast path — and on one whose video
// level was trained on random patterns, greedyOrder gives greedyScan's
// order and charges one edge evaluation per A2 read, for random
// candidate sets.
func TestGreedyOrderMatchesScan(t *testing.T) {
	m := equivModel(t)
	rng := xrand.New(43)
	var video []mmm.AccessPattern
	for p := 0; p < 4; p++ {
		video = append(video, mmm.AccessPattern{
			States: []int{rng.Intn(m.NumVideos()), rng.Intn(m.NumVideos())}, Freq: 1 + rng.Intn(3),
		})
	}
	trained, err := m.Train(nil, video, hmmm.DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]*hmmm.Model{"untrained": m, "trained": trained} {
		eng, err := NewEngine(model, Options{AnnotatedOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			var candidates []int
			for v := 0; v < model.NumVideos(); v++ {
				if rng.Intn(3) > 0 {
					candidates = append(candidates, v)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			want, reads := greedyScan(model, candidates)
			var cost Cost
			if got := eng.greedyOrder(slices.Clone(candidates), &cost); !reflect.DeepEqual(got, want) || cost.EdgeEvals != reads {
				t.Fatalf("%s, candidates %v: order %v with %d edge evaluations, want %v with %d",
					name, candidates, got, cost.EdgeEvals, want, reads)
			}
		}
	}
}
