package videomodel

import (
	"fmt"
	"sort"
)

// MaxEvents is the largest event vocabulary a domain may declare. The
// bound comes from the compact model layout: hmmm.CompactSnapshot packs
// each state's annotations into a uint16 event bitmask, so no domain can
// address more than 16 concepts.
const MaxEvents = 16

// EventSpec describes one event concept of a domain: its MATN-visible
// name plus the feature emphasis synthvideo samples with.
type EventSpec struct {
	// Name is the vocabulary token used in MATN patterns and JSON.
	Name string
	// Emphasis > 0 scales how tightly the event's feature vectors
	// cluster around the concept centroid: 1 matches the soccer
	// baseline, 2 halves the jitter, 0.5 doubles it.
	Emphasis float64
}

// Domain is a pluggable concept vocabulary plus the timeline grammar
// that makes generated archives sequence events plausibly. The HMMM
// formalism itself is domain-agnostic — events are just concepts flowing
// through P1,2 learning and the Eq. 14 similarity — so the domain is
// consumed only at the edges: synthetic generation, MATN parsing, and
// name rendering.
type Domain struct {
	// Name identifies the domain ("soccer", "basketball", ...). It is
	// stamped into model snapshots and refused on mismatch at load.
	Name string
	// Events lists the vocabulary; Events[i] corresponds to Event(i+1),
	// so Event.Index addresses this slice directly.
	Events []EventSpec

	// Start[i] is the unnormalized weight of event i opening a video's
	// annotation timeline.
	Start []float64
	// Follow[i][j] is the unnormalized weight of event j appearing
	// after event i in a timeline. A row may be all-zero, in which case
	// generation falls back to the Start weights.
	Follow [][]float64

	byName map[string]Event
}

// NewDomain validates and assembles a domain, building the name→event
// map once (MATN parses one atom per token; a linear scan per atom was
// measurable, see BenchmarkParseEvent).
func NewDomain(name string, events []EventSpec, start []float64, follow [][]float64) (*Domain, error) {
	if name == "" {
		return nil, fmt.Errorf("videomodel: domain needs a name")
	}
	if len(events) == 0 || len(events) > MaxEvents {
		return nil, fmt.Errorf("videomodel: domain %q has %d events, want 1..%d", name, len(events), MaxEvents)
	}
	byName := make(map[string]Event, len(events)+1)
	byName[eventNames[EventNone]] = EventNone
	for i, ev := range events {
		if ev.Name == "" || ev.Name == eventNames[EventNone] {
			return nil, fmt.Errorf("videomodel: domain %q: event %d has reserved or empty name %q", name, i, ev.Name)
		}
		if _, dup := byName[ev.Name]; dup {
			return nil, fmt.Errorf("videomodel: domain %q: duplicate event name %q", name, ev.Name)
		}
		if ev.Emphasis <= 0 {
			return nil, fmt.Errorf("videomodel: domain %q: event %q has non-positive emphasis", name, ev.Name)
		}
		byName[ev.Name] = Event(i + 1)
	}
	if len(start) != len(events) {
		return nil, fmt.Errorf("videomodel: domain %q: len(start) = %d, want %d", name, len(start), len(events))
	}
	if !positiveWeight(start) {
		return nil, fmt.Errorf("videomodel: domain %q: start weights need a positive entry", name)
	}
	if len(follow) != len(events) {
		return nil, fmt.Errorf("videomodel: domain %q: len(follow) = %d, want %d", name, len(follow), len(events))
	}
	for i, row := range follow {
		if len(row) != len(events) {
			return nil, fmt.Errorf("videomodel: domain %q: follow row %d has %d entries, want %d", name, i, len(row), len(events))
		}
		for j, w := range row {
			if w < 0 {
				return nil, fmt.Errorf("videomodel: domain %q: follow[%d][%d] negative", name, i, j)
			}
		}
	}
	return &Domain{Name: name, Events: events, Start: start, Follow: follow, byName: byName}, nil
}

func positiveWeight(ws []float64) bool {
	for _, w := range ws {
		if w < 0 {
			return false
		}
	}
	for _, w := range ws {
		if w > 0 {
			return true
		}
	}
	return false
}

// NumEvents returns the size of the domain's vocabulary (its concept
// count C).
func (d *Domain) NumEvents() int { return len(d.Events) }

// ParseEvent resolves a vocabulary token to its Event via the map built
// at construction. "none" resolves to EventNone for every domain.
func (d *Domain) ParseEvent(name string) (Event, error) {
	if e, ok := d.byName[name]; ok {
		return e, nil
	}
	return EventNone, fmt.Errorf("videomodel: unknown %s event %q", d.Name, name)
}

// EventName renders e in the domain's vocabulary, falling back to the
// anonymous form for out-of-vocabulary events.
func (d *Domain) EventName(e Event) string {
	if e == EventNone {
		return eventNames[EventNone]
	}
	if i := int(e) - 1; i >= 0 && i < len(d.Events) {
		return d.Events[i].Name
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Spec returns the EventSpec of e, or a zero spec with Emphasis 1 for
// out-of-vocabulary events.
func (d *Domain) Spec(e Event) EventSpec {
	if i := int(e) - 1; i >= 0 && i < len(d.Events) {
		return d.Events[i]
	}
	return EventSpec{Name: d.EventName(e), Emphasis: 1}
}

// AllEvents returns the domain's vocabulary as events, in index order.
func (d *Domain) AllEvents() []Event {
	out := make([]Event, len(d.Events))
	for i := range d.Events {
		out[i] = Event(i + 1)
	}
	return out
}

var (
	soccerDomain     = mustBuiltin(soccerSpec())
	basketballDomain = mustBuiltin(basketballSpec())
	newsDomain       = mustBuiltin(newsSpec())

	builtins = map[string]*Domain{
		soccerDomain.Name:     soccerDomain,
		basketballDomain.Name: basketballDomain,
		newsDomain.Name:       newsDomain,
	}
)

func mustBuiltin(name string, events []EventSpec, start []float64, follow [][]float64) *Domain {
	d, err := NewDomain(name, events, start, follow)
	if err != nil {
		panic(err)
	}
	return d
}

// Soccer is the default domain: the vocabulary the original reproduction
// hardcoded, with names matching the Event constants exactly.
func Soccer() *Domain { return soccerDomain }

// Basketball is a built-in 10-event domain.
func Basketball() *Domain { return basketballDomain }

// News is a built-in 7-event broadcast-news domain.
func News() *Domain { return newsDomain }

// DomainByName resolves a built-in domain. The empty string resolves to
// soccer: models and snapshots predating domain stamping carry no name,
// and they are all soccer.
func DomainByName(name string) (*Domain, bool) {
	if name == "" {
		return soccerDomain, true
	}
	d, ok := builtins[name]
	return d, ok
}

// DomainNames lists the built-in domains in sorted order (for CLI help
// and error messages).
func DomainNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func soccerSpec() (string, []EventSpec, []float64, [][]float64) {
	// Names and order must match the package-level Event constants
	// exactly: Soccer() is the vocabulary every pre-domain model used.
	events := []EventSpec{
		{Name: "goal", Emphasis: 1},
		{Name: "corner_kick", Emphasis: 1},
		{Name: "free_kick", Emphasis: 1},
		{Name: "foul", Emphasis: 1},
		{Name: "goal_kick", Emphasis: 1},
		{Name: "yellow_card", Emphasis: 1},
		{Name: "red_card", Emphasis: 1},
		{Name: "player_change", Emphasis: 1},
	}
	// Timeline grammar: set pieces and cards follow fouls, goal kicks
	// restart play after misses, substitutions trail cards and goals.
	start := []float64{1, 2, 2, 3, 2, 0.5, 0.1, 1}
	follow := [][]float64{
		//                 goal ck   fk   foul gk   yc   rc   pc
		/* goal */ {0.3, 0.5, 0.5, 1, 2, 0.3, 0.1, 2},
		/* corner_kick */ {2, 1, 0.5, 1, 2, 0.3, 0.1, 0.3},
		/* free_kick */ {1.5, 1, 0.5, 1, 2, 0.3, 0.1, 0.3},
		/* foul */ {0.2, 0.3, 5, 0.5, 0.3, 2, 0.5, 0.5},
		/* goal_kick */ {0.5, 1, 1, 2, 0.5, 0.3, 0.1, 0.5},
		/* yellow_card */ {0.3, 0.5, 2, 1, 0.5, 0.3, 0.5, 2},
		/* red_card */ {0.3, 0.3, 1, 0.5, 0.3, 0.2, 0.1, 4},
		/* player_change */ {0.5, 0.5, 0.5, 1, 1, 0.3, 0.1, 0.5},
	}
	return "soccer", events, start, follow
}

func basketballSpec() (string, []EventSpec, []float64, [][]float64) {
	events := []EventSpec{
		{Name: "three_pointer", Emphasis: 1.2},
		{Name: "dunk", Emphasis: 1.3},
		{Name: "layup", Emphasis: 0.9},
		{Name: "free_throw", Emphasis: 1.5},
		{Name: "steal", Emphasis: 0.8},
		{Name: "block", Emphasis: 1},
		{Name: "turnover", Emphasis: 0.7},
		{Name: "rebound", Emphasis: 0.8},
		{Name: "timeout", Emphasis: 1.4},
		{Name: "fast_break", Emphasis: 0.9},
	}
	start := []float64{1, 0.5, 2, 0.5, 1, 0.5, 1.5, 2, 0.3, 1}
	follow := [][]float64{
		//                 3pt  dunk lay  ft   stl  blk  to   reb  tmo  fb
		/* three_pointer */ {0.5, 0.2, 0.5, 0.3, 0.5, 0.2, 1, 2, 1, 0.5},
		/* dunk */ {0.5, 0.3, 0.5, 1, 0.5, 0.2, 0.5, 1, 2, 0.5},
		/* layup */ {0.5, 0.3, 0.5, 2, 0.5, 1, 0.5, 2, 0.3, 0.5},
		/* free_throw */ {0.5, 0.2, 0.5, 3, 0.5, 0.2, 1, 3, 0.3, 0.5},
		/* steal */ {1, 2, 3, 0.5, 0.3, 0.2, 0.3, 0.5, 0.2, 5},
		/* block */ {0.5, 0.3, 0.5, 0.2, 1, 0.3, 1, 4, 0.3, 2},
		/* turnover */ {0.5, 1, 2, 0.2, 1, 0.5, 0.3, 0.5, 1, 4},
		/* rebound */ {1, 0.5, 1, 0.3, 0.5, 0.5, 1, 0.5, 0.5, 3},
		/* timeout */ {1, 0.3, 1, 0.5, 0.5, 0.3, 1, 1, 0.1, 0.5},
		/* fast_break */ {1, 4, 3, 1, 0.3, 2, 1, 1, 0.3, 0.3},
	}
	return "basketball", events, start, follow
}

func newsSpec() (string, []EventSpec, []float64, [][]float64) {
	events := []EventSpec{
		{Name: "anchor_desk", Emphasis: 1.6},
		{Name: "field_report", Emphasis: 0.8},
		{Name: "interview", Emphasis: 1.2},
		{Name: "weather", Emphasis: 1.5},
		{Name: "sports_recap", Emphasis: 0.7},
		{Name: "commercial", Emphasis: 0.5},
		{Name: "breaking_news", Emphasis: 1},
	}
	// A bulletin opens at the desk and alternates desk ↔ package.
	start := []float64{8, 0.5, 0.2, 0.1, 0.1, 0.5, 1}
	follow := [][]float64{
		//                 desk pkg  intv wthr spts comm brk
		/* anchor_desk */ {0.5, 5, 2, 1, 1, 1, 0.5},
		/* field_report */ {4, 1, 3, 0.2, 0.2, 1, 0.5},
		/* interview */ {4, 1.5, 0.5, 0.2, 0.2, 1, 0.3},
		/* weather */ {3, 0.3, 0.2, 0.2, 2, 2, 0.1},
		/* sports_recap */ {3, 0.3, 0.5, 0.5, 1, 2, 0.1},
		/* commercial */ {5, 1, 0.3, 1, 1, 1, 0.3},
		/* breaking_news */ {2, 4, 2, 0.1, 0.1, 0.3, 1},
	}
	return "news", events, start, follow
}
