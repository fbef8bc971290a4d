package videomodel

import (
	"sort"
	"testing"
)

func TestBuiltinDomains(t *testing.T) {
	for _, d := range []*Domain{Soccer(), Basketball(), News()} {
		if d.NumEvents() == 0 || d.NumEvents() > MaxEvents {
			t.Fatalf("domain %q has %d events", d.Name, d.NumEvents())
		}
		for i, e := range d.AllEvents() {
			if !e.Valid() || e.Index() != i {
				t.Fatalf("domain %q event %d: invalid mapping %v", d.Name, i, e)
			}
			name := d.EventName(e)
			got, err := d.ParseEvent(name)
			if err != nil || got != e {
				t.Fatalf("domain %q: round trip %v -> %q -> %v, %v", d.Name, e, name, got, err)
			}
		}
		if e, err := d.ParseEvent("none"); err != nil || e != EventNone {
			t.Fatalf("domain %q: ParseEvent(none) = %v, %v", d.Name, e, err)
		}
		if _, err := d.ParseEvent("no_such_event"); err == nil {
			t.Fatalf("domain %q accepted unknown event", d.Name)
		}
	}
}

// TestSoccerMatchesLegacyVocabulary pins that the default domain is
// byte-for-byte the vocabulary pre-domain models used, so legacy
// snapshots (domain stamp "") keep parsing and rendering identically.
func TestSoccerMatchesLegacyVocabulary(t *testing.T) {
	d := Soccer()
	if d.NumEvents() != NumEvents {
		t.Fatalf("soccer has %d events, package has %d", d.NumEvents(), NumEvents)
	}
	for _, e := range AllEvents() {
		if d.EventName(e) != e.String() {
			t.Errorf("event %d: domain name %q != legacy name %q", e, d.EventName(e), e.String())
		}
	}
}

func TestDomainEventNameOutOfVocabulary(t *testing.T) {
	d := News()
	e := Event(d.NumEvents() + 1)
	if got := d.EventName(e); got != "event(8)" {
		t.Errorf("EventName out of vocabulary = %q", got)
	}
	if s := d.Spec(e); s.Emphasis != 1 {
		t.Errorf("Spec out of vocabulary = %+v", s)
	}
}

func TestDomainByName(t *testing.T) {
	if d, ok := DomainByName(""); !ok || d != Soccer() {
		t.Error("empty name should resolve to soccer (legacy snapshots)")
	}
	for _, name := range DomainNames() {
		d, ok := DomainByName(name)
		if !ok || d.Name != name {
			t.Errorf("DomainByName(%q) = %v, %v", name, d, ok)
		}
	}
	if _, ok := DomainByName("cricket"); ok {
		t.Error("unknown domain resolved")
	}
	if !sort.StringsAreSorted(DomainNames()) {
		t.Error("DomainNames not sorted")
	}
}

func TestNewDomainRejects(t *testing.T) {
	ev := func(names ...string) []EventSpec {
		out := make([]EventSpec, len(names))
		for i, n := range names {
			out[i] = EventSpec{Name: n, Emphasis: 1}
		}
		return out
	}
	ones := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	sq := func(n int) [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = ones(n)
		}
		return m
	}

	cases := []struct {
		desc   string
		name   string
		events []EventSpec
		start  []float64
		follow [][]float64
	}{
		{"empty name", "", ev("a"), ones(1), sq(1)},
		{"no events", "d", nil, nil, nil},
		{"too many events", "d", ev(make([]string, MaxEvents+1)...), ones(MaxEvents + 1), sq(MaxEvents + 1)},
		{"reserved none", "d", ev("none"), ones(1), sq(1)},
		{"duplicate", "d", ev("a", "a"), ones(2), sq(2)},
		{"zero emphasis", "d", []EventSpec{{Name: "a"}}, ones(1), sq(1)},
		{"start length", "d", ev("a", "b"), ones(1), sq(2)},
		{"start all zero", "d", ev("a"), []float64{0}, sq(1)},
		{"start negative", "d", ev("a"), []float64{-1}, sq(1)},
		{"follow rows", "d", ev("a", "b"), ones(2), sq(1)},
		{"follow row length", "d", ev("a", "b"), ones(2), [][]float64{ones(2), ones(1)}},
		{"follow negative", "d", ev("a"), ones(1), [][]float64{{-0.5}}},
	}
	for _, c := range cases {
		if c.desc == "too many events" {
			for i := range c.events {
				c.events[i].Name = string(rune('a' + i))
			}
		}
		if _, err := NewDomain(c.name, c.events, c.start, c.follow); err == nil {
			t.Errorf("%s: NewDomain accepted invalid spec", c.desc)
		}
	}
}

// BenchmarkParseEvent pins the map-based atom lookup: MATN resolves one
// event name per atom, and the previous linear scan over the name table
// showed up in parse-heavy workloads (fuzzing, per-request parses).
func BenchmarkParseEvent(b *testing.B) {
	d := Soccer()
	names := make([]string, 0, d.NumEvents())
	for _, e := range d.AllEvents() {
		names = append(names, d.EventName(e))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ParseEvent(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}
