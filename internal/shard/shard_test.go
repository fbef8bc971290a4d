package shard

import (
	"testing"

	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
)

func TestSplitCoversModelExactlyOnce(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 3, Videos: 7, MaxShots: 9})
	for _, k := range []int{1, 2, 3, 7, 50} {
		shards, err := Split(m, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(shards) > k {
			t.Fatalf("k=%d: got %d shards", k, len(shards))
		}
		seenVideo := make(map[int]bool)
		next := 0 // parent id of the first state no shard covered yet
		for _, sh := range shards {
			if !sh.Model.Partial {
				t.Fatalf("k=%d: shard model not marked Partial", k)
			}
			n := sh.Model.NumStates()
			if n == 0 {
				t.Fatalf("k=%d: shard without states", k)
			}
			for _, vi := range sh.Videos {
				if seenVideo[vi] {
					t.Fatalf("k=%d: video %d in two shards", k, vi)
				}
				seenVideo[vi] = true
			}
			// Local state s is parent state Offset+s: the shard's states
			// are exactly its videos' parent range, right after the
			// previous shard's.
			lo, _ := m.VideoStates(sh.Videos[0])
			_, hi := m.VideoStates(sh.Videos[len(sh.Videos)-1])
			if sh.Offset != next || lo != next || hi != next+n {
				t.Fatalf("k=%d: shard at offset %d with %d states, videos span [%d,%d), want offset %d",
					k, sh.Offset, n, lo, hi, next)
			}
			next += n
		}
		if len(seenVideo) != m.NumVideos() {
			t.Fatalf("k=%d: %d of %d videos covered", k, len(seenVideo), m.NumVideos())
		}
		if next != m.NumStates() {
			t.Fatalf("k=%d: %d of %d states covered", k, next, m.NumStates())
		}
	}
}

func TestSplitPreservesParametersVerbatim(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 11, Videos: 5, LearnP12: true})
	shards, err := Split(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for si, sh := range shards {
		sm := sh.Model
		if sm.P12 != m.P12 || sm.B1Prime != m.B1Prime {
			t.Errorf("shard %d: P12/B1' not shared with the parent", si)
		}
		for li := 0; li < sm.NumStates(); li++ {
			gi := sh.Offset + li
			if sm.Pi1.At(li) != m.Pi1.At(gi) || sm.StartMS(li) != m.StartMS(gi) {
				t.Errorf("shard %d: state %d has Pi1 %v at %dms, want parent's %v at %dms",
					si, li, sm.Pi1.At(li), sm.StartMS(li), m.Pi1.At(gi), m.StartMS(gi))
			}
			for f := 0; f < m.K(); f++ {
				if sm.B1.At(li, f) != m.B1.At(gi, f) {
					t.Fatalf("shard %d: B1 row %d differs from parent row %d", si, li, gi)
				}
			}
			if sm.States[li].Shot != m.States[gi].Shot {
				t.Errorf("shard %d: state %d shot mismatch", si, li)
			}
		}
		for lv, vi := range sh.Videos {
			if sm.LocalA[lv] != m.LocalA[vi] {
				t.Errorf("shard %d: LocalA[%d] not aliased to parent video %d", si, lv, vi)
			}
			if sm.Pi2[lv] != m.Pi2[vi] {
				t.Errorf("shard %d: Pi2[%d] = %v, want %v", si, lv, sm.Pi2[lv], m.Pi2[vi])
			}
			for lw, vj := range sh.Videos {
				if sm.A2.At(lv, lw) != m.A2.At(vi, vj) {
					t.Errorf("shard %d: A2(%d,%d) differs from parent (%d,%d)", si, lv, lw, vi, vj)
				}
			}
			if sm.VideoIDs[lv] != m.VideoIDs[vi] {
				t.Errorf("shard %d: VideoIDs[%d] mismatch", si, lv)
			}
		}
		if err := sm.Validate(1e-9); err != nil {
			t.Errorf("shard %d: sub-model invalid: %v", si, err)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 1})
	if _, err := Split(nil, 2); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Split(m, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Split(m, -3); err == nil {
		t.Error("negative k accepted")
	}
}

func TestSplitSingleShardIsWholeModel(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 5})
	shards, err := Split(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("got %d shards, want 1", len(shards))
	}
	sh := shards[0]
	if len(sh.Videos) != m.NumVideos() || sh.Model.NumStates() != m.NumStates() || sh.Offset != 0 {
		t.Fatalf("single shard covers %d videos / %d states at offset %d, want %d / %d at 0",
			len(sh.Videos), sh.Model.NumStates(), sh.Offset, m.NumVideos(), m.NumStates())
	}
}

// Videos with no annotated shots must land in some shard (so scoped
// queries still resolve) without ever producing an empty shard.
func TestSplitHandlesUnannotatedVideos(t *testing.T) {
	// Annotate sparsely so several videos have no states at all.
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 9, Videos: 8, MaxShots: 2, Annotate: 0.2})
	empty := 0
	for vi := 0; vi < m.NumVideos(); vi++ {
		lo, hi := m.VideoStates(vi)
		if lo == hi {
			empty++
		}
	}
	if empty == 0 {
		t.Skip("seed produced no unannotated videos; adjust config")
	}
	shards, err := Split(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	videos := 0
	for _, sh := range shards {
		if sh.Model.NumStates() == 0 {
			t.Fatal("empty shard returned")
		}
		videos += len(sh.Videos)
	}
	if videos != m.NumVideos() {
		t.Fatalf("%d videos assigned, want %d", videos, m.NumVideos())
	}
}
