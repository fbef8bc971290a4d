package retrieval

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// memoLen reads the order memo's entry count.
func memoLen(e *Engine) int {
	om := &e.shared.orders
	om.mu.Lock()
	defer om.mu.Unlock()
	return len(om.entries)
}

// TestOrderMemoHitSharesOrderAndChargesCost pins the memo's contract: a
// hit returns the stored order itself, charges exactly the edge
// evaluations the walk cost, and is keyed by the first step's event set
// and AnnotatedOnly — not by event order, later steps, or scope.
func TestOrderMemoHitSharesOrderAndChargesCost(t *testing.T) {
	m := equivModel(t)
	eng, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	first := Step{Events: []videomodel.Event{videomodel.EventGoal, videomodel.EventFreeKick}}
	want := eng.exactOrder(first)
	if want.edgeEvals == 0 {
		t.Fatal("fixture walk has no edges: the cost assertion would be vacuous")
	}

	var miss, hit, permuted Cost
	o1 := eng.videoOrder([]Step{first}, nil, &miss)
	o2 := eng.videoOrder([]Step{first, {Events: []videomodel.Event{videomodel.EventFoul}}},
		&Scope{Video: m.VideoIDs[0]}, &hit)
	flipped := Step{Events: []videomodel.Event{videomodel.EventFreeKick, videomodel.EventGoal}}
	o3 := eng.videoOrder([]Step{flipped}, nil, &permuted)
	if !slices.Equal(o1, want.order) {
		t.Fatalf("miss order %v, want %v", o1, want.order)
	}
	if &o1[0] != &o2[0] || &o1[0] != &o3[0] {
		t.Error("hits did not return the memoized order")
	}
	for _, c := range []Cost{miss, hit, permuted} {
		if c != (Cost{EdgeEvals: want.edgeEvals}) {
			t.Errorf("cost %+v, want only EdgeEvals=%d", c, want.edgeEvals)
		}
	}
	if n := memoLen(eng); n != 1 {
		t.Errorf("memo holds %d entries, want 1", n)
	}

	// AnnotatedOnly is part of the key; derived engines share the memo.
	sim := eng.WithOptions(Options{})
	if sim.shared != eng.shared {
		t.Fatal("WithOptions rebuilt the shared caches")
	}
	var c Cost
	full := sim.videoOrder([]Step{first}, nil, &c)
	if len(full) != m.NumVideos() || !slices.Equal(full[:len(o1)], o1) {
		t.Errorf("similarity-mode order %v does not extend %v to all %d videos", full, o1, m.NumVideos())
	}
	if n := memoLen(eng); n != 2 {
		t.Errorf("memo holds %d entries, want 2", n)
	}
}

// TestOrderMemoBounded walks more distinct first steps than the memo may
// hold: the entry count never exceeds the bound and every order — before
// and after the drop-all — equals the direct walk.
func TestOrderMemoBounded(t *testing.T) {
	m := equivModel(t)
	eng, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	events := videomodel.AllEvents()
	for round := 0; round < 2; round++ {
		for mask := 1; mask < 1<<len(events) && mask <= 3*maxMemoOrders; mask++ {
			var first Step
			for i, ev := range events {
				if mask&(1<<i) != 0 {
					first.Events = append(first.Events, ev)
				}
			}
			want := eng.exactOrder(first)
			var c Cost
			if got := eng.videoOrder([]Step{first}, nil, &c); !slices.Equal(got, want.order) || c.EdgeEvals != want.edgeEvals {
				t.Fatalf("round %d mask %b: order %v cost %d, want %v cost %d",
					round, mask, got, c.EdgeEvals, want.order, want.edgeEvals)
			}
			if n := memoLen(eng); n > maxMemoOrders {
				t.Fatalf("memo grew to %d entries, bound is %d", n, maxMemoOrders)
			}
		}
	}
}

// TestOrderMemoDropsOnModelMutation retrains the video level in place —
// A2 and Π2 change, Version bumps, no Invalidate — and checks the next
// query re-derives the order from the live matrices.
func TestOrderMemoDropsOnModelMutation(t *testing.T) {
	m := equivModel(t).Clone()
	eng, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := NewQuery(videomodel.EventGoal).steps()
	var c Cost
	before := slices.Clone(eng.videoOrder(steps, nil, &c))
	eng.videoOrder(NewQuery(videomodel.EventFoul).steps(), nil, &c)

	// Feedback that makes the walk's last video the most accessed one.
	last := before[len(before)-1]
	if err := m.TrainVideoLevel([]mmm.AccessPattern{{States: []int{last}, Freq: 5}}, hmmm.DefaultTrainOptions()); err != nil {
		t.Fatal(err)
	}
	after := eng.videoOrder(steps, nil, &c)
	if want := eng.exactOrder(steps[0]).order; !slices.Equal(after, want) {
		t.Fatalf("order after retrain %v, want %v", after, want)
	}
	if after[0] != last || slices.Equal(after, before) {
		t.Fatalf("retrain did not move video %d to the front: before %v, after %v", last, before, after)
	}
	if n := memoLen(eng); n != 1 {
		t.Errorf("memo holds %d entries after the version change, want 1", n)
	}
}

// TestOrderMemoConcurrentHammer races same-first-step queries — misses,
// hits, and overflow drops — across engines sharing one memo. Run under
// -race by `make race`.
func TestOrderMemoConcurrentHammer(t *testing.T) {
	m := equivModel(t)
	base, err := NewEngine(m, Options{AnnotatedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{
		base,
		base.WithOptions(Options{AnnotatedOnly: true, Beam: 1, TopK: 3}),
	}
	queries := equivQueries(m)
	want := make([][]*Result, len(engines))
	for ei, eng := range engines {
		for _, q := range queries {
			want[ei] = append(want[ei], mustRetrieve(t, m, eng.opts, q))
		}
	}
	events := videomodel.AllEvents()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ei, qi := (g+i)%len(engines), i%len(queries)
				got, err := engines[ei].Retrieve(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(want[ei][qi], got) {
					t.Errorf("engine %d query %d: concurrent result differs from the serial reference", ei, qi)
				}
				// Distinct conjunction keys keep the memo overflowing while
				// the others read it.
				var first Step
				for b, ev := range events {
					if (g*40+i+1)&(1<<b) != 0 {
						first.Events = append(first.Events, ev)
					}
				}
				var c Cost
				base.videoOrder([]Step{first}, nil, &c)
			}
		}()
	}
	wg.Wait()
}
