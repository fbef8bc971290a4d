package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/retrieval"
)

// The /api/query codec (DESIGN.md §5g): a strict decoder for the
// canonical request body and an appender that writes the response
// straight from the ranking. Both are byte-for-byte equivalent to
// encoding/json on what they handle; a request body outside the
// canonical subset goes to decodeJSON unchanged.

// decodeQuery decodes a QueryRequest body into req, writing the error
// response itself on failure, exactly as decodeJSON would. A body of at
// most maxKeptBuf bytes in the canonical subset (see
// decodeCanonicalQuery) is decoded from the pooled buffer; anything
// else — a longer body, a read error, any other spelling — is handed to
// decodeJSON as the prefix already read followed by the rest of the
// body, so the size cap and the no-buffering rule still hold.
func decodeQuery(w http.ResponseWriter, r *http.Request, req *QueryRequest) bool {
	jb := getJSONBuf()
	defer jb.release()
	complete := jb.readBody(r.Body)
	if complete && decodeCanonicalQuery(jb.Bytes(), req) {
		return true
	}
	var body io.Reader = bytes.NewReader(jb.Bytes())
	if !complete {
		body = io.MultiReader(body, r.Body)
	}
	// A separate value keeps req itself off the heap on the fast path.
	slow := new(QueryRequest)
	if !decodeJSON(w, body, slow) {
		return false
	}
	*req = *slow
	return true
}

// readBody appends r to the buffer until EOF or maxKeptBuf bytes,
// reporting whether it reached EOF. A read error leaves the body
// incomplete; the fallback decode reads on from r and meets it again
// (http.MaxBytesReader's error is sticky).
func (jb *jsonBuf) readBody(r io.Reader) bool {
	for jb.Len() < maxKeptBuf {
		if jb.Available() == 0 {
			jb.Grow(512)
		}
		buf := jb.AvailableBuffer()
		buf = buf[:min(cap(buf), maxKeptBuf-jb.Len())]
		n, err := r.Read(buf)
		jb.Write(buf[:n])
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
	return false
}

// decodeCanonicalQuery decodes body into req when it is in the subset
// json.Marshal(QueryRequest) emits, and reports false for anything
// else, leaving req partly written. The subset: one object whose keys
// are QueryRequest's exact JSON names; strings of printable ASCII whose
// only escapes are the ones json.Marshal writes for them (\", \\ and
// the HTML escapes of <, > and &, so "a -> b" arrives as
// "a -\u003e b"); integers -?(0|[1-9][0-9]*) that fit an int; true and
// false; JSON whitespace around the tokens and after the object. A
// repeated key keeps its last value, as encoding/json does. Every body
// accepted here decodeJSON accepts into the same struct, which
// FuzzQueryRequestDecode checks.
func decodeCanonicalQuery(body []byte, req *QueryRequest) bool {
	p := canonParser{b: body}
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return p.end()
	}
	for {
		key, ok := p.key()
		if !ok || !p.next(':') {
			return false
		}
		p.space()
		switch string(key) {
		case "pattern":
			req.Pattern, ok = p.str()
		case "top_k":
			req.TopK, ok = p.int()
		case "beam":
			req.Beam, ok = p.int()
		case "cross_video":
			req.CrossVideo, ok = p.bool()
		case "similar_shots":
			req.SimilarShots, ok = p.bool()
		case "explain":
			req.Explain, ok = p.bool()
		case "scope_video":
			req.ScopeVideo, ok = p.int()
		case "scope_from_ms":
			req.ScopeFromMS, ok = p.int()
		case "scope_to_ms":
			req.ScopeToMS, ok = p.int()
		case "timeout_ms":
			req.TimeoutMS, ok = p.int()
		default:
			return false
		}
		if !ok {
			return false
		}
		if p.next('}') {
			return p.end()
		}
		if !p.next(',') {
			return false
		}
	}
}

// canonParser is decodeCanonicalQuery's cursor over the body.
type canonParser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *canonParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (p *canonParser) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *canonParser) end() bool {
	p.space()
	return p.i == len(p.b)
}

// key reads an object key: a string of printable ASCII with no escapes.
// The result aliases the body.
func (p *canonParser) key() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < 0x20 || c > 0x7e:
			return nil, false
		}
	}
	return nil, false
}

// htmlEscapes are the escapes json.Marshal writes for printable ASCII
// besides \" and \\, and the bytes they stand for.
var htmlEscapes = [...]struct {
	seq string
	c   byte
}{{`\u003c`, '<'}, {`\u003e`, '>'}, {`\u0026`, '&'}}

// escape returns the byte the escape sequence at the front of b stands
// for and its length, or 0 and 0 outside the canonical escapes.
func escape(b []byte) (byte, int) {
	if len(b) >= 2 && (b[1] == '"' || b[1] == '\\') {
		return b[1], 2
	}
	for _, e := range htmlEscapes {
		if bytes.HasPrefix(b, []byte(e.seq)) {
			return e.c, len(e.seq)
		}
	}
	return 0, 0
}

// str reads a canonical string value.
func (p *canonParser) str() (string, bool) {
	if !p.next('"') {
		return "", false
	}
	start, escaped := p.i, 0
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			raw := p.b[start:p.i]
			p.i++
			if escaped == 0 {
				return string(raw), true
			}
			return unescape(raw, len(raw)-escaped), true
		case c == '\\':
			_, n := escape(p.b[p.i:])
			if n == 0 {
				return "", false
			}
			p.i += n
			escaped += n - 1
		case c < 0x20 || c > 0x7e:
			return "", false
		default:
			p.i++
		}
	}
	return "", false
}

// unescape decodes raw, already checked by str, into a string of
// length n.
func unescape(raw []byte, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			sb.WriteByte(raw[i])
			i++
			continue
		}
		c, k := escape(raw[i:])
		sb.WriteByte(c)
		i += k
	}
	return sb.String()
}

// int reads a JSON integer that fits an int; a fraction, an exponent,
// a leading zero or an overflow is left to encoding/json.
func (p *canonParser) int() (int, bool) {
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	var u uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		if p.i-start == 19 { // 19 digits always fit a uint64
			return 0, false
		}
		u = u*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	switch digits := p.i - start; {
	case digits == 0, digits > 1 && p.b[start] == '0':
		return 0, false
	case neg && u <= math.MaxInt+1:
		return int(-int64(u)), true
	case !neg && u <= math.MaxInt:
		return int(u), true
	}
	return 0, false
}

// bool reads true or false.
func (p *canonParser) bool() (bool, bool) {
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// jsonContentType is every JSON response's Content-Type value, shared so
// setting the header allocates nothing. Nothing appends to or writes
// into a header value slice in place.
var jsonContentType = []string{"application/json"}

// writeQueryResponse writes the /api/query response for out: what
// writeJSON(w, 200, QueryResponse{...}) wrote with matches built from
// the ranking, byte for byte, without the intermediate structs or
// reflection. A non-finite score or weight leaves the body empty, as
// json.Encoder does.
func writeQueryResponse(w http.ResponseWriter, pattern string, expanded int, out *queryOutcome,
	explain func(retrieval.Match) []api.StepExplanationJSON) {
	jb := getJSONBuf()
	defer jb.release()
	e := respEncoder{b: jb.AvailableBuffer()}
	e.queryResponse(pattern, expanded, out, explain)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if !e.nonFinite {
		_, _ = w.Write(e.b)
	}
	if cap(e.b) > jb.Cap() {
		// The response outgrew the pooled array: keep the larger one so
		// the next response appends in place.
		jb.Buffer = *bytes.NewBuffer(e.b[:0])
	}
}

// respEncoder appends JSON in encoding/json's exact spelling (HTML-safe
// strings, ES6 float form) and records whether a float was not finite,
// which makes the whole encode fail there.
type respEncoder struct {
	b         []byte
	nonFinite bool
}

// queryResponse appends a QueryResponse and json.Encoder's trailing
// newline. Field order, nulls and omitempty follow api.QueryResponse's
// tags: an empty ranking and an events row of a state without events
// are null, and explanation, truncated, degraded_shards and
// fresh_videos are omitted when empty.
func (e *respEncoder) queryResponse(pattern string, expanded int, out *queryOutcome,
	explain func(retrieval.Match) []api.StepExplanationJSON) {
	e.raw(`{"pattern":`)
	e.str(pattern)
	e.raw(`,"expanded_patterns":`)
	e.int(expanded)
	e.raw(`,"matches":`)
	if len(out.matches) == 0 {
		e.raw("null")
	} else {
		e.b = append(e.b, '[')
		for i, m := range out.matches {
			e.sep(i)
			e.match(out.snap, i+1, m, explain)
		}
		e.b = append(e.b, ']')
	}
	c := out.cost
	e.raw(`,"cost":{"sim_evals":`)
	e.int(c.SimEvals)
	e.raw(`,"edge_evals":`)
	e.int(c.EdgeEvals)
	e.raw(`,"videos_seen":`)
	e.int(c.VideosSeen)
	if c.Truncated {
		e.raw(`,"truncated":true`)
	}
	if c.DegradedShards != 0 {
		e.raw(`,"degraded_shards":`)
		e.int(c.DegradedShards)
	}
	e.raw("}")
	if out.fresh != 0 {
		e.raw(`,"fresh_videos":`)
		e.int(out.fresh)
	}
	e.raw("}\n")
}

// match appends one api.MatchJSON. States and weights are null when
// nil, shots and videos when there are no shots, and events when there
// are no states.
func (e *respEncoder) match(snap *snapshot, rank int, m retrieval.Match,
	explain func(retrieval.Match) []api.StepExplanationJSON) {
	e.raw(`{"rank":`)
	e.int(rank)
	e.raw(`,"score":`)
	e.float(m.Score)
	e.raw(`,"states":`)
	if m.States == nil {
		e.raw("null")
	} else {
		appendInts(e, m.States)
	}
	if len(m.Shots) == 0 {
		e.raw(`,"shots":null,"videos":null`)
	} else {
		e.raw(`,"shots":`)
		appendInts(e, m.Shots)
		e.raw(`,"videos":`)
		appendInts(e, m.Videos[:len(m.Shots)])
	}
	e.raw(`,"events":`)
	if len(m.States) == 0 {
		e.raw("null")
	} else {
		e.b = append(e.b, '[')
		for j, st := range m.States {
			e.sep(j)
			events := snap.stateEvents(st)
			if len(events) == 0 {
				e.raw("null")
				continue
			}
			e.b = append(e.b, '[')
			for k, ev := range events {
				e.sep(k)
				e.str(snap.domain.EventName(ev))
			}
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, ']')
	}
	e.raw(`,"weights":`)
	if m.Weights == nil {
		e.raw("null")
	} else {
		e.b = append(e.b, '[')
		for j, wt := range m.Weights {
			e.sep(j)
			e.float(wt)
		}
		e.b = append(e.b, ']')
	}
	if explain != nil {
		if steps := explain(m); len(steps) > 0 {
			e.raw(`,"explanation":[`)
			for j := range steps {
				e.sep(j)
				e.step(&steps[j])
			}
			e.b = append(e.b, ']')
		}
	}
	e.b = append(e.b, '}')
}

// step appends one api.StepExplanationJSON.
func (e *respEncoder) step(s *api.StepExplanationJSON) {
	e.b = append(e.b, '{')
	if s.Pi != 0 {
		e.raw(`"pi":`)
		e.float(s.Pi)
		e.b = append(e.b, ',')
	}
	if s.Transition != 0 {
		e.raw(`"transition":`)
		e.float(s.Transition)
		e.b = append(e.b, ',')
	}
	if s.CrossVideo {
		e.raw(`"cross_video":true,`)
	}
	e.raw(`"sim":`)
	e.float(s.Sim)
	e.raw(`,"weight":`)
	e.float(s.Weight)
	if len(s.Features) > 0 {
		e.raw(`,"features":[`)
		for j, fc := range s.Features {
			e.sep(j)
			e.raw(`{"feature":`)
			e.str(fc.Feature)
			e.raw(`,"event":`)
			e.str(fc.Event)
			e.raw(`,"term":`)
			e.float(fc.Term)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *respEncoder) raw(s string) { e.b = append(e.b, s...) }

// sep appends the comma before every array element but the first.
func (e *respEncoder) sep(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// appendInts appends xs as a JSON array.
func appendInts[T ~int](e *respEncoder, xs []T) {
	e.b = append(e.b, '[')
	for i, x := range xs {
		e.sep(i)
		e.int(int(x))
	}
	e.b = append(e.b, ']')
}

func (e *respEncoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float appends f as encoding/json does: ES6 number form, 'f' unless
// |f| is below 1e-6 or at least 1e21, with e-07 written e-7.
func (e *respEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.nonFinite = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// hexDigits spells \u escapes in encoding/json's lower case.
const hexDigits = "0123456789abcdef"

// str appends s as an HTML-safe JSON string, as json.Encoder does by
// default: ", \ and control characters escaped (\b \f \n \r \t by name),
// <, > and & as \u003c \u003e \u0026, U+2028 and U+2029 escaped,
// and each byte of invalid UTF-8 replaced by \ufffd.
func (e *respEncoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
