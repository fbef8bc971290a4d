package matn

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

func TestParseSimpleSequence(t *testing.T) {
	n, err := Parse("goal -> free_kick")
	if err != nil {
		t.Fatal(err)
	}
	if n.States != 3 || n.Final != 2 {
		t.Errorf("states=%d final=%d, want 3, 2", n.States, n.Final)
	}
	if len(n.Arcs) != 2 {
		t.Fatalf("arcs = %d, want 2", len(n.Arcs))
	}
	if n.Arcs[0].Events[0] != videomodel.EventGoal {
		t.Errorf("first arc = %v", n.Arcs[0].Events)
	}
}

func TestParsePaperExample(t *testing.T) {
	// Section 3: "a goal resulted from a free kick, then a corner kick,
	// followed by a player change, and finally another goal".
	qs, err := CompileString("free_kick & goal -> corner_kick -> player_change -> goal")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("compiled %d patterns, want 1", len(qs))
	}
	q := qs[0]
	if len(q.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(q.Steps))
	}
	if len(q.Steps[0].Events) != 2 {
		t.Errorf("first step events = %v, want free_kick & goal", q.Steps[0].Events)
	}
	if q.Steps[3].Events[0] != videomodel.EventGoal {
		t.Errorf("last step = %v, want goal", q.Steps[3].Events)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("compiled query invalid: %v", err)
	}
}

func TestParseAlternation(t *testing.T) {
	qs, err := CompileString("yellow_card | red_card -> goal")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("compiled %d patterns, want 2", len(qs))
	}
	first := map[videomodel.Event]bool{}
	for _, q := range qs {
		if len(q.Steps) != 2 {
			t.Fatalf("pattern steps = %d, want 2", len(q.Steps))
		}
		first[q.Steps[0].Events[0]] = true
	}
	if !first[videomodel.EventYellowCard] || !first[videomodel.EventRedCard] {
		t.Errorf("alternation branches = %v", first)
	}
}

func TestParseOptionalStep(t *testing.T) {
	qs, err := CompileString("goal -> foul? -> corner_kick")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("compiled %d patterns, want 2 (with and without foul)", len(qs))
	}
	lens := map[int]bool{}
	for _, q := range qs {
		lens[len(q.Steps)] = true
	}
	if !lens[2] || !lens[3] {
		t.Errorf("pattern lengths = %v, want {2,3}", lens)
	}
}

func TestParseParenthesizedAlternationInConjunction(t *testing.T) {
	qs, err := CompileString("goal & (foul | corner_kick)")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("compiled %d patterns, want 2", len(qs))
	}
	for _, q := range qs {
		if len(q.Steps[0].Events) != 2 {
			t.Errorf("step events = %v, want 2 conjuncts", q.Steps[0].Events)
		}
	}
}

func TestConjunctionDeduplicates(t *testing.T) {
	qs, err := CompileString("goal & goal")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[0].Steps[0].Events) != 1 {
		t.Errorf("duplicate conjunct kept: %v", qs[0].Steps[0].Events)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"goal ->",
		"-> goal",
		"goal -> -> foul",
		"throw_in",
		"goal & ",
		"(goal",
		"goal)",
		"goal -",
		"goal @ foul",
		"none -> goal",
	}
	for _, src := range cases {
		if _, err := CompileString(src); err == nil {
			t.Errorf("query %q accepted", src)
		}
	}
}

func TestFullyOptionalQueryRejected(t *testing.T) {
	_, err := CompileString("goal?")
	if err == nil {
		t.Fatal("fully optional query accepted")
	}
	if !strings.Contains(err.Error(), "empty pattern") {
		t.Errorf("err = %v, want empty-pattern complaint", err)
	}
}

func TestExpansionCap(t *testing.T) {
	// 2^7 = 128 > MaxPatterns: seven two-way alternating steps.
	src := strings.TrimSuffix(strings.Repeat("(goal | foul) -> ", 7), " -> ")
	_, err := CompileString(src)
	if !errors.Is(err, ErrTooManyPatterns) {
		t.Errorf("err = %v, want ErrTooManyPatterns", err)
	}
}

func TestAllEventNamesParse(t *testing.T) {
	for _, e := range videomodel.AllEvents() {
		qs, err := CompileString(e.String())
		if err != nil {
			t.Errorf("event %q failed to parse: %v", e.String(), err)
			continue
		}
		if qs[0].Steps[0].Events[0] != e {
			t.Errorf("event %q parsed to %v", e.String(), qs[0].Steps[0].Events[0])
		}
	}
}

func TestNetworkString(t *testing.T) {
	n, err := Parse("goal -> foul? -> corner_kick")
	if err != nil {
		t.Fatal(err)
	}
	s := n.String()
	if !strings.Contains(s, "goal") || !strings.Contains(s, "ε") {
		t.Errorf("String() = %q, want event and ε arcs rendered", s)
	}
}

func TestWhitespaceInsensitive(t *testing.T) {
	a, err := CompileString("goal->free_kick")
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileString("  goal  ->\n\tfree_kick ")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a[0].Steps) != len(b[0].Steps) {
		t.Error("whitespace changed parse result")
	}
}

func BenchmarkCompilePaperExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CompileString("free_kick & goal -> corner_kick -> player_change -> goal"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseGapConstraints(t *testing.T) {
	qs, err := CompileString("corner_kick ->[<30s] goal")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 {
		t.Fatalf("compiled %d patterns, want 1", len(qs))
	}
	st := qs[0].Steps[1]
	if st.MaxGapMS != 30000 || st.MinGapMS != 0 {
		t.Errorf("gap = [%d, %d]ms, want [0, 30000]", st.MinGapMS, st.MaxGapMS)
	}
	if qs[0].Steps[0].MaxGapMS != 0 {
		t.Error("first step must carry no gap")
	}
}

func TestParseGapMin(t *testing.T) {
	qs, err := CompileString("foul ->[>5s] free_kick")
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].Steps[1].MinGapMS != 5000 {
		t.Errorf("min gap = %d, want 5000", qs[0].Steps[1].MinGapMS)
	}
}

func TestParseGapRange(t *testing.T) {
	qs, err := CompileString("foul ->[500ms..2m] free_kick")
	if err != nil {
		t.Fatal(err)
	}
	st := qs[0].Steps[1]
	if st.MinGapMS != 500 || st.MaxGapMS != 120000 {
		t.Errorf("gap = [%d, %d]ms, want [500, 120000]", st.MinGapMS, st.MaxGapMS)
	}
}

func TestParseGapErrors(t *testing.T) {
	cases := []string{
		"foul ->[30s] goal",     // no operator
		"foul ->[<30] goal",     // missing unit
		"foul ->[<x30s] goal",   // bad number
		"foul ->[10s..5s] goal", // inverted range
		"foul ->[<30s goal",     // unterminated
		"foul ->[] goal",        // empty
		"foul ->[<s] goal",      // no digits
	}
	for _, src := range cases {
		if _, err := CompileString(src); err == nil {
			t.Errorf("gap query %q accepted", src)
		}
	}
}

func TestGapAfterOptionalStepDropped(t *testing.T) {
	// "goal? ->[<10s] foul": when the optional first step is elided, the
	// gap constraint has no previous step and must be dropped.
	qs, err := CompileString("goal? ->[<10s] foul")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if len(q.Steps) == 1 && q.Steps[0].MaxGapMS != 0 {
			t.Errorf("elided-prefix pattern kept gap: %+v", q.Steps[0])
		}
		if len(q.Steps) == 2 && q.Steps[1].MaxGapMS != 10000 {
			t.Errorf("full pattern lost gap: %+v", q.Steps[1])
		}
	}
}

func TestNetworkStringShowsGap(t *testing.T) {
	n, err := Parse("foul ->[<30s] goal")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.String(), "{0..30000ms}") {
		t.Errorf("String() = %q, want gap annotation", n.String())
	}
}

func TestParserNeverPanicsProperty(t *testing.T) {
	// Property: arbitrary byte soup must produce an error or a valid
	// network, never a panic, and compiled queries always validate.
	alphabet := []byte("goal frek&|?()->[<>..]0123456789ms _")
	check := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := xrand.New(seed)
		n := rng.Intn(40)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		qs, err := CompileString(string(buf))
		if err != nil {
			return true
		}
		for _, q := range qs {
			if q.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
