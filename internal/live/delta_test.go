package live

import (
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

func deltaOptions() retrieval.Options {
	return retrieval.Options{TopK: 5, Beam: 2, AnnotatedOnly: true}
}

func TestNewDeltaBuildsPartialModel(t *testing.T) {
	records := sampleRecords(3)
	d, err := NewDelta(records, 42, 7, hmmm.BuildOptions{LearnP12: true}, deltaOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Model.Partial {
		t.Fatal("delta model not marked Partial")
	}
	if err := d.Model.Validate(1e-9); err != nil {
		t.Fatalf("delta model invalid: %v", err)
	}
	if d.Offset != 42 || d.Gen != 7 || d.Len() != 3 {
		t.Fatalf("delta bookkeeping: offset=%d gen=%d len=%d", d.Offset, d.Gen, d.Len())
	}
	var nilDelta *Delta
	if nilDelta.Len() != 0 || nilDelta.Generation() != 0 {
		t.Fatal("nil delta accessors must be zero")
	}
	if _, err := NewDelta(nil, 0, 1, hmmm.BuildOptions{}, deltaOptions()); err == nil {
		t.Fatal("empty delta must be rejected")
	}
}

// TestNewDeltaDeterministic proves two delta builds over the same
// records retrieve bit-identically: the property the coalescer's
// (generation, delta generation) key relies on.
func TestNewDeltaDeterministic(t *testing.T) {
	records := sampleRecords(3)
	q := retrieval.NewQuery(records[0].Shots[1].Events[0])
	var first []retrieval.Match
	for i := 0; i < 2; i++ {
		d, err := NewDelta(records, 10, 1, hmmm.BuildOptions{LearnP12: true}, deltaOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Engine.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatal("delta retrieval found nothing")
		}
		if i == 0 {
			first = res.Matches
		} else if !reflect.DeepEqual(res.Matches, first) {
			t.Fatal("two delta builds over the same records retrieve differently")
		}
	}
}

func TestUnionCoversBaseAndRecords(t *testing.T) {
	records := sampleRecords(2)
	baseV, baseF := sampleRecords(1)[0].VideoAndFeatures()
	baseV.ID = 1 // distinct from the 100+ record IDs
	for _, s := range baseV.Shots {
		s.Video = 1
		s.ID += 5000
	}
	rebased := make(map[videomodel.ShotID][]float64)
	for id, f := range baseF {
		rebased[id+5000] = f
	}
	base, err := videomodel.NewArchive([]*videomodel.Video{baseV})
	if err != nil {
		t.Fatal(err)
	}
	union, feats, err := Union(base, rebased, records)
	if err != nil {
		t.Fatal(err)
	}
	if len(union.Videos) != 3 {
		t.Fatalf("union has %d videos, want 3", len(union.Videos))
	}
	if len(base.Videos) != 1 {
		t.Fatal("Union mutated the base archive")
	}
	if len(feats) != 3 {
		t.Fatalf("union has %d feature vectors, want 3", len(feats))
	}
	// Colliding IDs must be rejected, not silently merged.
	if _, _, err := Union(base, rebased, append(records, records[0])); err == nil {
		t.Fatal("duplicate video in union not rejected")
	}
}
