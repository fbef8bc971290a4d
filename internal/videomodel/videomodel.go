// Package videomodel defines the entity model of the video database: videos,
// shots, frames, audio clips, and the semantic event taxonomy the paper's
// soccer evaluation uses.
//
// The types here are deliberately plain data. Rendering lives in
// synthvideo/synthaudio, feature computation in features, and all stochastic
// modeling in mmm/hmmm; everything communicates through these structs.
package videomodel

import (
	"fmt"
	"time"
)

// Event is a semantic event concept that can be annotated on a video shot.
// The taxonomy matches Section 3 of the paper ("goal", "corner kick",
// "free kick", "foul", "goal kick", "yellow card", "red card") plus
// "player change", which the paper's example temporal query uses.
type Event int

// The soccer event taxonomy.
const (
	EventNone Event = iota // unannotated shot (ordinary play)
	EventGoal
	EventCornerKick
	EventFreeKick
	EventFoul
	EventGoalKick
	EventYellowCard
	EventRedCard
	EventPlayerChange

	numEvents
)

// NumEvents is the number of real event concepts (excluding EventNone).
const NumEvents = int(numEvents) - 1

var eventNames = [...]string{
	EventNone:         "none",
	EventGoal:         "goal",
	EventCornerKick:   "corner_kick",
	EventFreeKick:     "free_kick",
	EventFoul:         "foul",
	EventGoalKick:     "goal_kick",
	EventYellowCard:   "yellow_card",
	EventRedCard:      "red_card",
	EventPlayerChange: "player_change",
}

// String returns the snake_case event name used across the query language,
// the HTTP API, and the experiment reports.
func (e Event) String() string {
	if e < 0 || int(e) >= len(eventNames) {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Valid reports whether e is a real event concept (not EventNone and
// addressable by some domain: 1..MaxEvents). Whether e is inside a
// *particular* vocabulary is a per-domain question — compare Index()
// against the domain's NumEvents or the model's NumConcepts.
func (e Event) Valid() bool { return e > EventNone && int(e) <= MaxEvents }

// Index returns the zero-based concept index used for matrix rows (B2
// columns, P1,2 rows, B1' rows): EventGoal is 0, EventPlayerChange is
// NumEvents-1. It panics for EventNone or out-of-range values.
func (e Event) Index() int {
	if !e.Valid() {
		panic(fmt.Sprintf("videomodel: Index of invalid event %v", e))
	}
	return int(e) - 1
}

// EventFromIndex is the inverse of Event.Index.
func EventFromIndex(i int) Event {
	if i < 0 || i >= MaxEvents {
		panic(fmt.Sprintf("videomodel: event index %d out of range", i))
	}
	return Event(i + 1)
}

// ParseEvent maps a snake_case event name to its Event in the default
// soccer vocabulary. It returns an error for unknown names; "none" is
// accepted and maps to EventNone. Other vocabularies parse through
// Domain.ParseEvent.
func ParseEvent(name string) (Event, error) {
	return Soccer().ParseEvent(name)
}

// AllEvents returns the real event concepts in index order.
func AllEvents() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = EventFromIndex(i)
	}
	return out
}

// VideoID identifies a video in the archive.
type VideoID int

// ShotID identifies a shot globally (across all videos).
type ShotID int

// Frame is one rendered video frame: a grayscale-plus-green raster. Soccer
// feature extraction (Table 1) needs grass detection, pixel change,
// histogram change, and background statistics; a luminance plane plus a
// per-pixel "green-ness" plane carries exactly that information at a
// fraction of full RGB cost.
type Frame struct {
	W, H  int
	Luma  []uint8 // W*H luminance samples, row-major
	Green []uint8 // W*H green-dominance samples (255 = saturated grass green)
}

// NewFrame allocates a zeroed W×H frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Luma: make([]uint8, w*h), Green: make([]uint8, w*h)}
}

// Pixels returns the number of pixels in the frame.
func (f *Frame) Pixels() int { return f.W * f.H }

// AudioClip is a mono PCM waveform attached to a shot.
type AudioClip struct {
	SampleRate int       // samples per second
	Samples    []float64 // amplitude in [-1, 1]
}

// Duration returns the clip length.
func (c *AudioClip) Duration() time.Duration {
	if c.SampleRate <= 0 {
		return 0
	}
	return time.Duration(float64(len(c.Samples)) / float64(c.SampleRate) * float64(time.Second))
}

// Shot is the elementary unit of the video database: the continuous action
// between the start and end of a camera operation (Section 4.2.1).
type Shot struct {
	ID      ShotID
	Video   VideoID
	Index   int // position of the shot within its video (0-based)
	StartMS int // start time within the video, milliseconds
	EndMS   int // end time within the video, milliseconds

	// Events holds the semantic event annotations of the shot. Most shots
	// have none; the paper's corpus annotates 506 of 11,567. A shot may
	// carry several annotations (the Section 4.2.1.1 example has a shot
	// annotated both "free kick" and "goal").
	Events []Event

	Frames []*Frame   // sampled frames of the shot
	Audio  *AudioClip // audio track of the shot
}

// NE returns the number of event annotations of the shot: the NE(s_i) term
// of the A1 initialization formula.
func (s *Shot) NE() int { return len(s.Events) }

// Annotated reports whether the shot carries at least one event annotation.
func (s *Shot) Annotated() bool { return len(s.Events) > 0 }

// HasEvent reports whether the shot is annotated with e.
func (s *Shot) HasEvent(e Event) bool {
	for _, ev := range s.Events {
		if ev == e {
			return true
		}
	}
	return false
}

// DurationMS returns the shot length in milliseconds.
func (s *Shot) DurationMS() int { return s.EndMS - s.StartMS }

// Video is a source video with its segmented shots in temporal order.
type Video struct {
	ID    VideoID
	Name  string
	Genre string // optional content archetype label (corpus ground truth)
	Shots []*Shot
}

// EventCountsN returns the video's per-concept annotation counts over a
// c-concept vocabulary: its row of matrix B2 in a c-concept model.
// Annotations with Index() >= c are skipped.
func (v *Video) EventCountsN(c int) []int {
	counts := make([]int, c)
	for _, s := range v.Shots {
		for _, e := range s.Events {
			if e.Valid() && e.Index() < c {
				counts[e.Index()]++
			}
		}
	}
	return counts
}

// Archive is the full video database: the entity store every other layer
// (feature extraction, model construction, retrieval, the HTTP server)
// reads from.
type Archive struct {
	Videos []*Video

	shotByID map[ShotID]*Shot
}

// NewArchive builds an archive over the given videos and indexes the shots.
// It returns an error if shot IDs collide or a shot's Video field does not
// match its containing video.
func NewArchive(videos []*Video) (*Archive, error) {
	a := &Archive{Videos: videos, shotByID: make(map[ShotID]*Shot)}
	for _, v := range videos {
		for i, s := range v.Shots {
			if s.Video != v.ID {
				return nil, fmt.Errorf("videomodel: shot %d claims video %d but is stored in video %d", s.ID, s.Video, v.ID)
			}
			if s.Index != i {
				return nil, fmt.Errorf("videomodel: shot %d has index %d but is at position %d of video %d", s.ID, s.Index, i, v.ID)
			}
			if _, dup := a.shotByID[s.ID]; dup {
				return nil, fmt.Errorf("videomodel: duplicate shot ID %d", s.ID)
			}
			a.shotByID[s.ID] = s
		}
	}
	return a, nil
}

// AddVideo appends a video to the archive, validating and indexing its
// shots like NewArchive does.
func (a *Archive) AddVideo(v *Video) error {
	if a.Video(v.ID) != nil {
		return fmt.Errorf("videomodel: video %d already in archive", v.ID)
	}
	for i, s := range v.Shots {
		if s.Video != v.ID {
			return fmt.Errorf("videomodel: shot %d claims video %d but is stored in video %d", s.ID, s.Video, v.ID)
		}
		if s.Index != i {
			return fmt.Errorf("videomodel: shot %d has index %d but is at position %d of video %d", s.ID, s.Index, i, v.ID)
		}
		if _, dup := a.shotByID[s.ID]; dup {
			return fmt.Errorf("videomodel: duplicate shot ID %d", s.ID)
		}
	}
	for _, s := range v.Shots {
		a.shotByID[s.ID] = s
	}
	a.Videos = append(a.Videos, v)
	return nil
}

// Video returns the video with the given ID, or nil if unknown.
func (a *Archive) Video(id VideoID) *Video {
	for _, v := range a.Videos {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// NumShots returns the total number of shots across all videos.
func (a *Archive) NumShots() int {
	n := 0
	for _, v := range a.Videos {
		n += len(v.Shots)
	}
	return n
}

// NumAnnotated returns the number of shots with at least one annotation.
func (a *Archive) NumAnnotated() int {
	n := 0
	for _, v := range a.Videos {
		for _, s := range v.Shots {
			if s.Annotated() {
				n++
			}
		}
	}
	return n
}

// AllShots returns every shot in archive order (videos in order, shots in
// temporal order within each video).
func (a *Archive) AllShots() []*Shot {
	out := make([]*Shot, 0, a.NumShots())
	for _, v := range a.Videos {
		out = append(out, v.Shots...)
	}
	return out
}

// Stats summarizes the archive for reports and the /api/model/stats
// endpoint.
type Stats struct {
	Videos      int
	Shots       int
	Annotated   int
	EventCounts map[string]int
}

// Stats computes archive summary statistics.
func (a *Archive) Stats() Stats {
	st := Stats{
		Videos:      len(a.Videos),
		Shots:       a.NumShots(),
		Annotated:   a.NumAnnotated(),
		EventCounts: make(map[string]int),
	}
	for _, v := range a.Videos {
		for _, s := range v.Shots {
			for _, e := range s.Events {
				st.EventCounts[e.String()]++
			}
		}
	}
	return st
}
