package videomodel

import (
	"testing"
	"time"
)

func TestEventStringAndParseRoundTrip(t *testing.T) {
	for _, e := range AllEvents() {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got != e {
			t.Errorf("round trip %v -> %q -> %v", e, e.String(), got)
		}
	}
}

func TestParseEventNone(t *testing.T) {
	e, err := ParseEvent("none")
	if err != nil || e != EventNone {
		t.Fatalf("ParseEvent(none) = %v, %v", e, err)
	}
}

func TestParseEventUnknown(t *testing.T) {
	if _, err := ParseEvent("throw_in"); err == nil {
		t.Fatal("ParseEvent accepted unknown event")
	}
}

func TestEventIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumEvents; i++ {
		e := EventFromIndex(i)
		if e.Index() != i {
			t.Errorf("index round trip %d -> %v -> %d", i, e, e.Index())
		}
		if !e.Valid() {
			t.Errorf("event %v from valid index reported invalid", e)
		}
	}
}

func TestEventIndexPanicsOnNone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EventNone.Index() did not panic")
		}
	}()
	EventNone.Index()
}

func TestEventFromIndexPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EventFromIndex(MaxEvents) did not panic")
		}
	}()
	EventFromIndex(MaxEvents)
}

func TestEventStringOutOfRange(t *testing.T) {
	if got := Event(99).String(); got != "event(99)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestShotNEAndHasEvent(t *testing.T) {
	s := &Shot{Events: []Event{EventFreeKick, EventGoal}}
	if s.NE() != 2 {
		t.Errorf("NE = %d, want 2", s.NE())
	}
	if !s.HasEvent(EventGoal) || s.HasEvent(EventFoul) {
		t.Error("HasEvent wrong")
	}
	if !s.Annotated() {
		t.Error("annotated shot reported unannotated")
	}
	if (&Shot{}).Annotated() {
		t.Error("empty shot reported annotated")
	}
}

func TestShotDuration(t *testing.T) {
	s := &Shot{StartMS: 1000, EndMS: 4500}
	if s.DurationMS() != 3500 {
		t.Errorf("DurationMS = %d, want 3500", s.DurationMS())
	}
}

func TestAudioClipDuration(t *testing.T) {
	c := &AudioClip{SampleRate: 8000, Samples: make([]float64, 4000)}
	if got := c.Duration(); got != 500*time.Millisecond {
		t.Errorf("Duration = %v, want 500ms", got)
	}
	if (&AudioClip{}).Duration() != 0 {
		t.Error("zero-rate clip duration should be 0")
	}
}

func TestFrame(t *testing.T) {
	f := NewFrame(4, 3)
	if f.Pixels() != 12 || len(f.Luma) != 12 || len(f.Green) != 12 {
		t.Errorf("NewFrame(4,3) pixels = %d luma=%d green=%d", f.Pixels(), len(f.Luma), len(f.Green))
	}
}

func buildVideo(id VideoID, events [][]Event) *Video {
	v := &Video{ID: id, Name: "v"}
	for i, evs := range events {
		v.Shots = append(v.Shots, &Shot{
			ID:      ShotID(int(id)*1000 + i),
			Video:   id,
			Index:   i,
			StartMS: i * 1000,
			EndMS:   (i + 1) * 1000,
			Events:  evs,
		})
	}
	return v
}

func TestVideoAnnotatedShotsAndEventCounts(t *testing.T) {
	v := buildVideo(1, [][]Event{
		{EventFreeKick},
		nil,
		{EventFreeKick, EventGoal},
		nil,
	})
	ann := v.AnnotatedShots()
	if len(ann) != 2 {
		t.Fatalf("AnnotatedShots = %d, want 2", len(ann))
	}
	if ann[0].Index != 0 || ann[1].Index != 2 {
		t.Errorf("annotated shot indices = %d, %d", ann[0].Index, ann[1].Index)
	}
	counts := v.EventCounts()
	if counts[EventFreeKick.Index()] != 2 {
		t.Errorf("free kick count = %d, want 2", counts[EventFreeKick.Index()])
	}
	if counts[EventGoal.Index()] != 1 {
		t.Errorf("goal count = %d, want 1", counts[EventGoal.Index()])
	}
}

func TestArchiveIndexing(t *testing.T) {
	v1 := buildVideo(1, [][]Event{{EventGoal}, nil})
	v2 := buildVideo(2, [][]Event{{EventFoul}})
	a, err := NewArchive([]*Video{v1, v2})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumShots() != 3 {
		t.Errorf("NumShots = %d, want 3", a.NumShots())
	}
	if a.NumAnnotated() != 2 {
		t.Errorf("NumAnnotated = %d, want 2", a.NumAnnotated())
	}
	if got := a.Shot(v2.Shots[0].ID); got != v2.Shots[0] {
		t.Error("Shot lookup failed")
	}
	if a.Shot(999) != nil {
		t.Error("unknown shot should return nil")
	}
	if a.Video(2) != v2 || a.Video(42) != nil {
		t.Error("Video lookup wrong")
	}
	if got := len(a.AllShots()); got != 3 {
		t.Errorf("AllShots = %d, want 3", got)
	}
}

func TestArchiveRejectsDuplicateShotIDs(t *testing.T) {
	v1 := buildVideo(1, [][]Event{nil})
	v2 := buildVideo(2, [][]Event{nil})
	v2.Shots[0].ID = v1.Shots[0].ID
	if _, err := NewArchive([]*Video{v1, v2}); err == nil {
		t.Fatal("NewArchive accepted duplicate shot IDs")
	}
}

func TestArchiveRejectsMismatchedVideoField(t *testing.T) {
	v := buildVideo(1, [][]Event{nil})
	v.Shots[0].Video = 5
	if _, err := NewArchive([]*Video{v}); err == nil {
		t.Fatal("NewArchive accepted shot with wrong Video field")
	}
}

func TestArchiveRejectsMismatchedIndex(t *testing.T) {
	v := buildVideo(1, [][]Event{nil, nil})
	v.Shots[1].Index = 5
	if _, err := NewArchive([]*Video{v}); err == nil {
		t.Fatal("NewArchive accepted shot with wrong Index field")
	}
}

func TestArchiveAddVideo(t *testing.T) {
	a, err := NewArchive([]*Video{buildVideo(1, [][]Event{{EventGoal}, nil})})
	if err != nil {
		t.Fatal(err)
	}
	v := buildVideo(2, [][]Event{{EventGoal}, nil, {EventFreeKick, EventGoal}})
	if err := a.AddVideo(v); err != nil {
		t.Fatal(err)
	}
	if len(a.Videos) != 2 || a.Video(2) != v {
		t.Errorf("videos = %d, want the new video indexed", len(a.Videos))
	}
	if a.Shot(v.Shots[2].ID) != v.Shots[2] {
		t.Error("new shot not indexed")
	}
	// Duplicates rejected without partial mutation.
	dup := buildVideo(3, [][]Event{nil})
	dup.Shots[0].ID = v.Shots[0].ID
	if err := a.AddVideo(dup); err == nil {
		t.Error("duplicate shot IDs accepted")
	}
	if len(a.Videos) != 2 || a.Video(3) != nil {
		t.Error("failed AddVideo mutated the archive")
	}
}

func TestArchiveStats(t *testing.T) {
	v := buildVideo(1, [][]Event{{EventGoal}, {EventGoal, EventFreeKick}, nil})
	a, err := NewArchive([]*Video{v})
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Videos != 1 || st.Shots != 3 || st.Annotated != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if st.EventCounts["goal"] != 2 || st.EventCounts["free_kick"] != 1 {
		t.Errorf("EventCounts = %v", st.EventCounts)
	}
}
