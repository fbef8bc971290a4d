// Package matn implements the Multimedia Augmented Transition Network
// query model of Figure 4. Every temporal pattern query is expressed as an
// MATN (the formalism of the authors' earlier multimedia presentation work,
// ref. [5]): a small transition network whose arcs are labeled with event
// requirements.
//
// The package provides a textual query language, a parser producing the
// network, and a compiler that expands the network into the linear
// retrieval.Query patterns the engine executes:
//
//	free_kick & goal -> corner_kick -> player_change -> goal
//
// is the paper's Section-3 example. The grammar:
//
//	pattern := step ( arrow step )*
//	arrow   := "->" ( "[" gap "]" )?  # optional temporal-gap constraint
//	gap     := "<" DUR | ">" DUR | DUR ".." DUR
//	step    := alt ( "?" )?           # "?" marks the step optional
//	alt     := conj ( "|" conj )*     # alternation of conjunctions
//	conj    := atom ( "&" atom )*     # events one shot must all carry
//	atom    := "!" EVENT | EVENT | "(" alt ")"
//
// DUR is an integer with a unit: "ms", "s", or "m" — so
// "corner_kick ->[<30s] goal" asks for a goal within thirty seconds of
// the corner kick. A "!" atom negates one event: "goal & !foul" matches
// shots annotated with a goal but not a foul. Negation only excludes —
// every step alternative still needs at least one positive event, so a
// step's score keeps its Eq. 14 meaning. Alternation and optional steps
// expand multiplicatively at compile time; Compile caps the expansion to
// guard against pathological queries.
//
// Event names resolve against a domain vocabulary (videomodel.Domain);
// Parse uses the default soccer domain and ParseDomain selects another.
package matn

import (
	"errors"
	"fmt"
	"strings"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// ErrTooManyPatterns is returned when a query expands past MaxPatterns.
var ErrTooManyPatterns = errors.New("matn: query expands to too many linear patterns")

// MaxPatterns bounds the number of linear patterns one MATN may compile to.
const MaxPatterns = 64

// Network is a parsed MATN: states connected by labeled arcs. State 0 is
// the start state; Final marks the accepting state.
type Network struct {
	Source string // the original query text
	States int    // number of states; arcs connect consecutive layers
	Arcs   []Arc
	Final  int // accepting state index

	// domain is the vocabulary the network was parsed against; nil means
	// the default soccer domain. Format and String render event names
	// through it.
	domain *videomodel.Domain
}

// dom returns the network's vocabulary, defaulting to soccer.
func (n *Network) dom() *videomodel.Domain {
	if n.domain != nil {
		return n.domain
	}
	return videomodel.Soccer()
}

// Arc is one transition of the network. An arc with no positive events
// and no negated ones is an ε-transition (produced by optional steps).
type Arc struct {
	From, To int
	Events   []videomodel.Event // conjunction the consumed shot must carry
	Not      []videomodel.Event // events the consumed shot must NOT carry
	MinGapMS int                // minimum start-time gap to the previous shot (0 = none)
	MaxGapMS int                // maximum start-time gap to the previous shot (0 = none)
}

// token kinds of the query lexer.
type tokenKind int

const (
	tokEvent tokenKind = iota
	tokArrow           // ->
	tokGap             // [<30s], [>5s], [5s..30s] following an arrow
	tokAnd             // &
	tokOr              // |
	tokOpt             // ?
	tokNot             // !
	tokLParen
	tokRParen
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex tokenizes the query text.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-':
			if i+1 >= len(src) || src[i+1] != '>' {
				return nil, fmt.Errorf("matn: position %d: expected '->' after '-'", i)
			}
			toks = append(toks, token{tokArrow, "->", i})
			i += 2
			// An arrow may carry a gap constraint: ->[<30s].
			if i < len(src) && src[i] == '[' {
				j := i + 1
				for j < len(src) && src[j] != ']' {
					j++
				}
				if j >= len(src) {
					return nil, fmt.Errorf("matn: position %d: unterminated gap constraint", i)
				}
				toks = append(toks, token{tokGap, src[i+1 : j], i})
				i = j + 1
			}
		case c == '&':
			toks = append(toks, token{tokAnd, "&", i})
			i++
		case c == '|':
			toks = append(toks, token{tokOr, "|", i})
			i++
		case c == '?':
			toks = append(toks, token{tokOpt, "?", i})
			i++
		case c == '!':
			toks = append(toks, token{tokNot, "!", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case isIdent(c):
			j := i
			for j < len(src) && isIdent(src[j]) {
				j++
			}
			toks = append(toks, token{tokEvent, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("matn: position %d: unexpected character %q", i, c)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdent(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// conjExpr is one parsed conjunction: the positive events the shot must
// carry and the negated ones it must not.
type conjExpr struct {
	pos []videomodel.Event
	neg []videomodel.Event
}

// stepExpr is a parsed step: the alternatives (each a conjunction), an
// optional flag, and the gap constraint carried by the arrow leading into
// the step.
type stepExpr struct {
	alts               []conjExpr
	optional           bool
	minGapMS, maxGapMS int
}

// parser consumes the token stream.
type parser struct {
	toks   []token
	pos    int
	domain *videomodel.Domain
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("matn: position %d: %s", t.pos, fmt.Sprintf(format, args...))
}

// Parse parses a query text into an MATN against the default soccer
// vocabulary.
func Parse(src string) (*Network, error) {
	return ParseDomain(src, nil)
}

// ParseDomain parses a query text into an MATN, resolving event names in
// the given domain's vocabulary (nil means soccer).
func ParseDomain(src string, d *videomodel.Domain) (*Network, error) {
	if strings.TrimSpace(src) == "" {
		return nil, errors.New("matn: empty query")
	}
	if d == nil {
		d = videomodel.Soccer()
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, domain: d}
	steps, err := p.pattern()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t, "unexpected %q", t.text)
	}
	return buildNetwork(src, steps, d), nil
}

// pattern := step ( arrow step )*
func (p *parser) pattern() ([]stepExpr, error) {
	first, err := p.step()
	if err != nil {
		return nil, err
	}
	steps := []stepExpr{first}
	for p.peek().kind == tokArrow {
		p.next()
		var minGap, maxGap int
		if p.peek().kind == tokGap {
			t := p.next()
			minGap, maxGap, err = parseGap(t.text)
			if err != nil {
				return nil, p.errf(t, "%v", err)
			}
		}
		next, err := p.step()
		if err != nil {
			return nil, err
		}
		// The constraint rides the arrow and attaches to the step it
		// leads into.
		next.minGapMS, next.maxGapMS = minGap, maxGap
		steps = append(steps, next)
	}
	return steps, nil
}

// parseGap parses the inside of a gap bracket: "<30s", ">5s", "5s..30s".
func parseGap(text string) (minMS, maxMS int, err error) {
	t := strings.TrimSpace(text)
	switch {
	case strings.HasPrefix(t, "<"):
		maxMS, err = parseDuration(t[1:])
	case strings.HasPrefix(t, ">"):
		minMS, err = parseDuration(t[1:])
	case strings.Contains(t, ".."):
		parts := strings.SplitN(t, "..", 2)
		if minMS, err = parseDuration(parts[0]); err == nil {
			maxMS, err = parseDuration(parts[1])
		}
		if err == nil && maxMS > 0 && minMS > maxMS {
			err = fmt.Errorf("gap range %q is inverted", t)
		}
	default:
		err = fmt.Errorf("bad gap constraint %q (want <DUR, >DUR, or DUR..DUR)", t)
	}
	return minMS, maxMS, err
}

// parseDuration parses an integer with a unit: ms, s, or m.
func parseDuration(text string) (int, error) {
	t := strings.TrimSpace(text)
	unit := 0
	switch {
	case strings.HasSuffix(t, "ms"):
		unit, t = 1, t[:len(t)-2]
	case strings.HasSuffix(t, "s"):
		unit, t = 1000, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		unit, t = 60000, t[:len(t)-1]
	default:
		return 0, fmt.Errorf("duration %q missing unit (ms, s, m)", text)
	}
	n := 0
	if t == "" {
		return 0, fmt.Errorf("duration %q has no number", text)
	}
	for _, c := range t {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad duration %q", text)
		}
		n = n*10 + int(c-'0')
	}
	return n * unit, nil
}

// step := alt ( "?" )?. Every alternative of a step must keep at least
// one positive event — a purely negative step would select by exclusion
// alone and have no Eq. 14 score — and may not both require and negate
// the same event.
func (p *parser) step() (stepExpr, error) {
	start := p.peek()
	alts, err := p.alt()
	if err != nil {
		return stepExpr{}, err
	}
	for _, c := range alts {
		if len(c.pos) == 0 {
			return stepExpr{}, p.errf(start, "step alternative has only negated events; each needs at least one positive event")
		}
		for _, ne := range c.neg {
			for _, pe := range c.pos {
				if ne == pe {
					return stepExpr{}, p.errf(start, "event %q both required and negated in one alternative", p.domain.EventName(ne))
				}
			}
		}
	}
	s := stepExpr{alts: alts}
	if p.peek().kind == tokOpt {
		p.next()
		s.optional = true
	}
	return s, nil
}

// alt := conj ( "|" conj )*
func (p *parser) alt() ([]conjExpr, error) {
	var alts []conjExpr
	for {
		c, err := p.conj()
		if err != nil {
			return nil, err
		}
		alts = append(alts, c...)
		if p.peek().kind != tokOr {
			return alts, nil
		}
		p.next()
	}
}

// conj := atom ( "&" atom )*. An atom may itself be a parenthesized
// alternation, so a conjunction of alternations distributes into several
// plain conjunctions.
func (p *parser) conj() ([]conjExpr, error) {
	acc, err := p.atom()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokAnd {
		p.next()
		rhs, err := p.atom()
		if err != nil {
			return nil, err
		}
		var combined []conjExpr
		for _, a := range acc {
			for _, b := range rhs {
				combined = append(combined, conjExpr{
					pos: append(append([]videomodel.Event(nil), a.pos...), b.pos...),
					neg: append(append([]videomodel.Event(nil), a.neg...), b.neg...),
				})
			}
		}
		if len(combined) > MaxPatterns {
			return nil, ErrTooManyPatterns
		}
		acc = combined
	}
	return acc, nil
}

// atom := "!" EVENT | EVENT | "(" alt ")". The result is a set of
// alternative conjunctions.
func (p *parser) atom() ([]conjExpr, error) {
	t := p.next()
	switch t.kind {
	case tokNot:
		ev := p.next()
		if ev.kind != tokEvent {
			return nil, p.errf(ev, "expected event name after '!'")
		}
		e, err := p.domain.ParseEvent(ev.text)
		if err != nil || !e.Valid() {
			return nil, p.errf(ev, "unknown event %q", ev.text)
		}
		return []conjExpr{{neg: []videomodel.Event{e}}}, nil
	case tokEvent:
		ev, err := p.domain.ParseEvent(t.text)
		if err != nil || !ev.Valid() {
			return nil, p.errf(t, "unknown event %q", t.text)
		}
		return []conjExpr{{pos: []videomodel.Event{ev}}}, nil
	case tokLParen:
		alts, err := p.alt()
		if err != nil {
			return nil, err
		}
		if closing := p.next(); closing.kind != tokRParen {
			return nil, p.errf(closing, "expected ')'")
		}
		return alts, nil
	default:
		return nil, p.errf(t, "expected event name, '!', or '('")
	}
}

// buildNetwork lays the parsed steps out as a chain of states with one arc
// per alternative and an ε-arc skipping each optional step.
func buildNetwork(src string, steps []stepExpr, d *videomodel.Domain) *Network {
	n := &Network{Source: src, States: len(steps) + 1, Final: len(steps), domain: d}
	for i, s := range steps {
		for _, alt := range s.alts {
			n.Arcs = append(n.Arcs, Arc{
				From: i, To: i + 1, Events: dedup(alt.pos), Not: dedup(alt.neg),
				MinGapMS: s.minGapMS, MaxGapMS: s.maxGapMS,
			})
		}
		if s.optional {
			n.Arcs = append(n.Arcs, Arc{From: i, To: i + 1}) // ε
		}
	}
	return n
}

func dedup(events []videomodel.Event) []videomodel.Event {
	seen := make(map[videomodel.Event]bool, len(events))
	var out []videomodel.Event
	for _, e := range events {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Compile expands the network into the linear retrieval queries it accepts.
// ε-arcs (optional steps) and alternation multiply the pattern count, which
// is capped at MaxPatterns. Patterns consisting solely of ε-arcs (an
// entirely optional query) are rejected.
func (n *Network) Compile() ([]retrieval.Query, error) {
	var out []retrieval.Query
	// Arcs grouped by source state.
	bySrc := make(map[int][]Arc)
	for _, a := range n.Arcs {
		bySrc[a.From] = append(bySrc[a.From], a)
	}
	var walk func(state int, acc []retrieval.Step) error
	walk = func(state int, acc []retrieval.Step) error {
		if state == n.Final {
			if len(acc) == 0 {
				return errors.New("matn: query accepts the empty pattern")
			}
			if len(out) >= MaxPatterns {
				return ErrTooManyPatterns
			}
			steps := make([]retrieval.Step, len(acc))
			copy(steps, acc)
			out = append(out, retrieval.Query{Steps: steps})
			return nil
		}
		for _, a := range bySrc[state] {
			next := acc
			if len(a.Events) == 0 && len(a.Not) > 0 {
				// Parse never produces this (every alternative keeps a
				// positive event); guard hand-built networks.
				return fmt.Errorf("matn: arc %d->%d has only negated events", a.From, a.To)
			}
			if len(a.Events) > 0 {
				step := retrieval.Step{Events: a.Events, Not: a.Not, MinGapMS: a.MinGapMS, MaxGapMS: a.MaxGapMS}
				if len(acc) == 0 {
					// A gap constraint is relative to the previous step;
					// with an optional first step elided there is none.
					step.MinGapMS, step.MaxGapMS = 0, 0
				}
				next = append(acc, step)
			}
			if err := walk(a.To, next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the network back into canonical query text that Parse
// accepts and that reproduces the network exactly (up to Source):
// alternatives in arc order joined by " | ", conjunctions by " & " with
// positive events first and negated ones ("!event") after, an optional
// step's trailing "?", and gap constraints normalized to milliseconds
// (">5000ms", "<30000ms", "5000ms..30000ms"). Formatting a re-parse of
// Format's own output is a fixpoint, which is what the round-trip fuzz
// target pins. It errors on networks that are not the step chain Parse
// produces (arcs skipping states, a step with only ε-arcs, an arc with
// only negated events).
func (n *Network) Format() (string, error) {
	d := n.dom()
	bySrc := make(map[int][]Arc)
	for _, a := range n.Arcs {
		if a.To != a.From+1 || a.From < 0 || a.To > n.Final {
			return "", fmt.Errorf("matn: arc %d->%d is not a chain step", a.From, a.To)
		}
		bySrc[a.From] = append(bySrc[a.From], a)
	}
	var b strings.Builder
	for i := 0; i < n.Final; i++ {
		var alts []string
		optional := false
		minGap, maxGap := 0, 0
		for _, a := range bySrc[i] {
			if len(a.Events) == 0 {
				if len(a.Not) > 0 {
					return "", fmt.Errorf("matn: arc %d->%d has only negated events", a.From, a.To)
				}
				optional = true
				continue
			}
			names := make([]string, 0, len(a.Events)+len(a.Not))
			for _, e := range a.Events {
				names = append(names, d.EventName(e))
			}
			for _, e := range a.Not {
				names = append(names, "!"+d.EventName(e))
			}
			alts = append(alts, strings.Join(names, " & "))
			minGap, maxGap = a.MinGapMS, a.MaxGapMS
		}
		if len(alts) == 0 {
			return "", fmt.Errorf("matn: step %d has no event arc", i)
		}
		if i > 0 {
			b.WriteString(" ->")
			switch {
			case minGap > 0 && maxGap > 0:
				fmt.Fprintf(&b, "[%dms..%dms]", minGap, maxGap)
			case minGap > 0:
				fmt.Fprintf(&b, "[>%dms]", minGap)
			case maxGap > 0:
				fmt.Fprintf(&b, "[<%dms]", maxGap)
			}
			b.WriteString(" ")
		}
		b.WriteString(strings.Join(alts, " | "))
		if optional {
			b.WriteString("?")
		}
	}
	return b.String(), nil
}

// CompileString parses and compiles a query text in one call, against
// the default soccer vocabulary.
func CompileString(src string) ([]retrieval.Query, error) {
	return CompileStringDomain(src, nil)
}

// CompileStringDomain parses and compiles a query text against a domain
// vocabulary (nil means soccer).
func CompileStringDomain(src string, d *videomodel.Domain) ([]retrieval.Query, error) {
	n, err := ParseDomain(src, d)
	if err != nil {
		return nil, err
	}
	return n.Compile()
}

// String renders the network arcs for debugging and the experiment report.
func (n *Network) String() string {
	d := n.dom()
	var b strings.Builder
	fmt.Fprintf(&b, "MATN(%d states)", n.States)
	for _, a := range n.Arcs {
		if len(a.Events) == 0 && len(a.Not) == 0 {
			fmt.Fprintf(&b, " [%d-ε->%d]", a.From, a.To)
			continue
		}
		names := make([]string, 0, len(a.Events)+len(a.Not))
		for _, e := range a.Events {
			names = append(names, d.EventName(e))
		}
		for _, e := range a.Not {
			names = append(names, "!"+d.EventName(e))
		}
		gap := ""
		if a.MinGapMS > 0 || a.MaxGapMS > 0 {
			gap = fmt.Sprintf("{%d..%dms}", a.MinGapMS, a.MaxGapMS)
		}
		fmt.Fprintf(&b, " [%d-%s%s->%d]", a.From, strings.Join(names, "&"), gap, a.To)
	}
	return b.String()
}
