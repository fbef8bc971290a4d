package hmmm

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/videodb/hmmm/internal/videomodel"
)

// TestStateHoldsOnlyShotAndEvents pins a level-1 state at its shot and
// event slice: the video, local index and start time are derived.
func TestStateHoldsOnlyShotAndEvents(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got != 32 {
		t.Errorf("a State is %d bytes, want 32", got)
	}
}

// TestBuildCarvesEventsFromOneArray checks every state's events lie
// right after the previous state's, each slice capped at its length so
// an append cannot run into the next state's.
func TestBuildCarvesEventsFromOneArray(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	for i := 1; i < m.NumStates(); i++ {
		prev, cur := m.States[i-1].Events, m.States[i].Events
		if cap(prev) != len(prev) {
			t.Errorf("state %d events have cap %d, len %d", i-1, cap(prev), len(prev))
		}
		if unsafe.Pointer(&cur[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*int(unsafe.Sizeof(prev[0]))) {
			t.Errorf("state %d events do not follow state %d's", i, i-1)
		}
	}
}

// TestVideoOfSkipsEmptyVideos reads the video of every state over a
// layout whose middle video holds none.
func TestVideoOfSkipsEmptyVideos(t *testing.T) {
	m := &Model{States: make([]State, 4), offsets: []int{0, 2, 2, 3}}
	for s, want := range []int{0, 0, 2, 3} {
		if got := m.VideoOf(s); got != want {
			t.Errorf("VideoOf(%d) = %d, want %d", s, got, want)
		}
	}
}

// TestBuildRefusesStartTimeOutOfRange: the start-time column is int32,
// so a shot starting at 2³¹ ms is refused, not wrapped.
func TestBuildRefusesStartTimeOutOfRange(t *testing.T) {
	a, feats := fixtureArchive(t)
	last := a.Videos[0].Shots[len(a.Videos[0].Shots)-1]
	last.StartMS, last.EndMS = math.MaxInt32+1, math.MaxInt32+2
	if _, err := Build(a, feats, BuildOptions{}); err == nil || !strings.Contains(err.Error(), "2^31") {
		t.Errorf("Build err = %v, want a start time outside [0, 2^31)", err)
	}
}

// TestValidateRefusesOffAxisAndOutOfRange: Validate refuses a state
// event outside the concept axis (the engine indexes its tables by it),
// a B1' entry that is NaN or outside [0, 1] (Eq. 11 means of Eq. 3
// values), a B2 entry that is not a non-negative integer count, and a
// negative start time.
func TestValidateRefusesOffAxisAndOutOfRange(t *testing.T) {
	m := buildFixture(t, BuildOptions{})
	event := func(e videomodel.Event) func(c *Model) {
		return func(c *Model) {
			c.States = slices.Clone(m.States)
			c.States[0].Events = []videomodel.Event{e}
		}
	}
	b1p := func(v float64) func(c *Model) {
		return func(c *Model) {
			c.B1Prime = m.B1Prime.Clone()
			c.B1Prime.Set(0, 0, v)
		}
	}
	b2 := func(v float64) func(c *Model) {
		return func(c *Model) {
			c.B2 = m.B2.Clone()
			c.B2.Set(0, 0, v)
		}
	}
	cases := map[string]func(c *Model){
		"event past the axis": event(videomodel.EventFromIndex(m.NumConcepts())),
		"no event":            event(videomodel.EventNone),
		"B1' NaN":             b1p(math.NaN()),
		"B1' above 1":         b1p(1.5),
		"B1' negative":        b1p(-0.5),
		"B2 negative":         b2(-3),
		"B2 NaN":              b2(math.NaN()),
		"B2 fractional":       b2(0.5),
		"B2 infinite":         b2(math.Inf(1)),
		"start time negative": func(c *Model) {
			c.startMS = slices.Clone(m.startMS)
			c.startMS[0] = -1
		},
	}
	if m.NumConcepts() >= videomodel.MaxEvents {
		t.Fatalf("%d concepts leave no valid event past the axis", m.NumConcepts())
	}
	for name, corrupt := range cases {
		c := *m
		corrupt(&c)
		if err := c.Validate(1e-6); err == nil {
			t.Errorf("%s passes Validate", name)
		}
	}
	if err := m.Validate(1e-6); err != nil {
		t.Fatalf("the fixture itself is invalid: %v", err)
	}
}

// TestFromSnapshotRefusesLayout: the offsets must group every state
// into exactly one video, in order, and every state needs a start time.
func TestFromSnapshotRefusesLayout(t *testing.T) {
	m := buildFixture(t, BuildOptions{}) // offsets [0, 3, 5]
	cases := map[string]func(s *Snapshot){
		"first video not at 0": func(s *Snapshot) { s.Offsets = []int{1, 3, 5} },
		"offsets fall":         func(s *Snapshot) { s.Offsets = []int{0, 3, 2} },
		"offset past the end":  func(s *Snapshot) { s.Offsets = []int{0, 3, 6} },
		"offset missing":       func(s *Snapshot) { s.Offsets = []int{0, 3} },
		"start time missing":   func(s *Snapshot) { s.StartMS = s.StartMS[1:] },
	}
	for name, corrupt := range cases {
		s := m.Snapshot()
		corrupt(s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: FromSnapshot accepted the snapshot", name)
		}
	}
	if _, err := FromSnapshot(m.Snapshot()); err != nil {
		t.Fatalf("the fixture's own snapshot: %v", err)
	}
}
