package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// oracleMatchesJSON is the slab build the response appender replaced:
// every match's Shots/Videos carved from one []int, every Events row
// from one [][]string, every event name from one []string, and a slice
// nil exactly where a per-match append build left it nil. Encoded by
// json.Encoder it is the body the appender must equal byte for byte.
func oracleMatchesJSON(snap *snapshot, merged []retrieval.Match, explain func(retrieval.Match) []api.StepExplanationJSON) []api.MatchJSON {
	var nInts, nRows, nNames int
	for _, match := range merged {
		nInts += 2 * len(match.Shots)
		nRows += len(match.States)
		for _, st := range match.States {
			nNames += len(snap.stateEvents(st))
		}
	}
	ints := make([]int, nInts)
	rows := make([][]string, nRows)
	names := make([]string, nNames)
	var out []api.MatchJSON
	if len(merged) > 0 {
		out = make([]api.MatchJSON, len(merged))
	}
	for i, match := range merged {
		mj := &out[i]
		mj.Rank, mj.Score = i+1, match.Score
		mj.States, mj.Weights = match.States, match.Weights
		if n := len(match.Shots); n > 0 {
			mj.Shots, mj.Videos, ints = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
			for j, shot := range match.Shots {
				mj.Shots[j] = int(shot)
				mj.Videos[j] = int(match.Videos[j])
			}
		}
		if n := len(match.States); n > 0 {
			mj.Events, rows = rows[:n:n], rows[n:]
			for j, st := range match.States {
				events := snap.stateEvents(st)
				if len(events) == 0 {
					continue
				}
				row := names[:len(events):len(events)]
				names = names[len(events):]
				for k, e := range events {
					row[k] = snap.domain.EventName(e)
				}
				mj.Events[j] = row
			}
		}
		if explain != nil {
			mj.Explanation = explain(match)
		}
	}
	return out
}

// oracleQueryBody is the body writeJSON wrote for a query response
// before the appender: json.Encoder over the slab build, and nothing at
// all when the encode fails.
func oracleQueryBody(pattern string, expanded int, out *queryOutcome, explain func(retrieval.Match) []api.StepExplanationJSON) []byte {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(api.QueryResponse{
		Pattern:     pattern,
		Expanded:    expanded,
		Matches:     oracleMatchesJSON(out.snap, out.matches, explain),
		Cost:        costJSON(out.cost),
		FreshVideos: out.fresh,
	})
	if err != nil {
		return nil
	}
	return buf.Bytes()
}

// appendedQueryBody is writeQueryResponse's body; the status and
// Content-Type are writeJSON's whatever the body.
func appendedQueryBody(t testing.TB, pattern string, expanded int, out *queryOutcome, explain func(retrieval.Match) []api.StepExplanationJSON) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	writeQueryResponse(w, pattern, expanded, out, explain)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", w.Code, w.Header().Get("Content-Type"))
	}
	return w.Body.Bytes()
}

// queryOutcomeFor runs req on s's published snapshot as handleQuery
// does, without coalescing, lanes or a deadline.
func queryOutcomeFor(t *testing.T, s *Server, req QueryRequest) (*queryOutcome, []retrieval.Query) {
	t.Helper()
	snap := s.current.Load()
	pattern, err := s.patterns.compile(req.Pattern, snap.domain)
	if err != nil {
		t.Fatal(err)
	}
	rq := requests.New().(*request)
	out, err := s.runQuery(context.Background(), rq, req, snap, pattern.queries, requestScope(rq, req), s.queryOptions(req), 0)
	if err != nil {
		t.Fatal(err)
	}
	return out, pattern.queries
}

// TestQueryResponseBytes pins the response appender to json.Encoder over
// the slab build it replaced, and the served body to the appender: every
// shape of the benchmark schedule (single steps with a wide beam, a
// negation, the two-step mid pattern, alternations and an optional step
// that compile to two patterns, three-step heavy patterns), explain, a
// scope, similar_shots, an empty ranking, and a ranking with
// delta-backed matches, explained too. Synthetic rankings add what
// retrieval never returns: a state without events (a null events row),
// a match with no steps, non-nil empty slices, and odd pattern text.
func TestQueryResponseBytes(t *testing.T) {
	s, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	ls, ts := newLiveServer(t, live.Config{LogPath: filepath.Join(t.TempDir(), "j")}, Config{})
	mustIngest(t, ts, "delta-a", 41)
	mustIngest(t, ts, "delta-b", 52)
	video := int(s.current.Load().model.VideoIDs[1])

	type check func(t *testing.T, out *queryOutcome, body []byte)
	nonEmpty := func(t *testing.T, out *queryOutcome, body []byte) {
		if len(out.matches) == 0 {
			t.Fatal("no matches: the case does not exercise the ranking")
		}
	}
	has := func(sub string) check {
		return func(t *testing.T, out *queryOutcome, body []byte) {
			if !bytes.Contains(body, []byte(sub)) {
				t.Fatalf("body lacks %s", sub)
			}
		}
	}
	fromDelta := func(t *testing.T, out *queryOutcome, body []byte) {
		d := out.snap.delta
		if d == nil || out.fresh == 0 {
			t.Fatal("no delta behind the query")
		}
		for _, m := range out.matches {
			if m.States[0] >= d.Offset {
				has(`"fresh_videos":`)(t, out, body)
				return
			}
		}
		t.Fatal("no delta-backed match in the ranking")
	}
	for _, c := range []struct {
		name  string
		s     *Server
		req   QueryRequest
		check check
	}{
		{"single step", s, QueryRequest{Pattern: "goal", TopK: 10, Beam: 10}, nonEmpty},
		{"negation", s, QueryRequest{Pattern: "foul & !goal", TopK: 10, Beam: 10}, nonEmpty},
		{"two steps", s, QueryRequest{Pattern: "goal -> free_kick", TopK: 10, Beam: 1}, nonEmpty},
		{"alternation", s, QueryRequest{Pattern: "goal | corner_kick -> free_kick", TopK: 10, Beam: 1}, nonEmpty},
		{"optional step", s, QueryRequest{Pattern: "goal -> free_kick?", TopK: 10, Beam: 1}, nonEmpty},
		{"alternation last", s, QueryRequest{Pattern: "goal -> free_kick | foul", TopK: 10, Beam: 1}, nonEmpty},
		{"three steps", s, QueryRequest{Pattern: "goal -> free_kick -> corner_kick", TopK: 10, Beam: 4}, nonEmpty},
		{"explain", s, QueryRequest{Pattern: "goal -> free_kick | foul", TopK: 5, Explain: true}, has(`"explanation":[{"pi":`)},
		{"scope", s, QueryRequest{Pattern: "goal", TopK: 10, ScopeVideo: video}, nonEmpty},
		{"similar shots", s, QueryRequest{Pattern: "red_card -> goal", TopK: 10, SimilarShots: true}, nonEmpty},
		{"empty ranking", s, QueryRequest{Pattern: "goal", ScopeFromMS: 1 << 40}, has(`"matches":null`)},
		{"delta", ls, QueryRequest{Pattern: "goal", TopK: 100, Beam: 8}, fromDelta},
		{"delta explain", ls, QueryRequest{Pattern: "goal", TopK: 100, Explain: true}, fromDelta},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, queries := queryOutcomeFor(t, c.s, c.req)
			var explain func(retrieval.Match) []api.StepExplanationJSON
			if c.req.Explain {
				explain = explainer(out, queries)
			}
			got := appendedQueryBody(t, c.req.Pattern, len(queries), out, explain)
			if want := oracleQueryBody(c.req.Pattern, len(queries), out, explain); !bytes.Equal(got, want) {
				t.Fatalf("appender differs from json.Encoder:\n got %s\nwant %s", got, want)
			}
			c.check(t, out, got)
			code, served := serve(c.s.Handler(), http.MethodPost, "/api/query", queryBody(t, c.req))
			if code != http.StatusOK || !bytes.Equal(served, got) {
				t.Fatalf("served status %d, body differs from the appender's:\n got %s\nwant %s", code, served, got)
			}
		})
	}

	snap := s.current.Load()
	top, _ := queryOutcomeFor(t, s, QueryRequest{Pattern: "goal -> free_kick", TopK: 3})
	m := top.matches[0]
	odd := m
	odd.States = append([]int{snap.model.NumStates() + 5}, m.States[1:]...)
	for i, ranking := range [][]retrieval.Match{
		{m, odd, {Score: 0.25}},
		{{States: []int{}, Weights: []float64{}, Score: math.Copysign(0, -1)}},
		{{States: []int{-1}, Shots: []videomodel.ShotID{7}, Videos: []videomodel.VideoID{9}, Weights: []float64{1e-7}, Score: 1e21}},
	} {
		out := &queryOutcome{snap: snap, matches: ranking, cost: retrieval.Cost{Truncated: true, DegradedShards: 2}, fresh: 3}
		pattern := "goal -> <b>&\"\\ \u2028\x01\xff"
		got := appendedQueryBody(t, pattern, 2, out, nil)
		if want := oracleQueryBody(pattern, 2, out, nil); !bytes.Equal(got, want) {
			t.Errorf("synthetic ranking %d:\n got %s\nwant %s", i, got, want)
		}
		if i == 0 && !bytes.Contains(got, []byte(`"events":[null,`)) {
			t.Errorf("a state without events should render a null row: %s", got)
		}
	}
}

// TestQueryResponseNonFinite pins writeJSON's failure mode: a NaN or
// infinite float anywhere leaves the body empty with status 200.
func TestQueryResponseNonFinite(t *testing.T) {
	s, err := New(Config{Model: testModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.current.Load()
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		out := &queryOutcome{snap: snap, matches: []retrieval.Match{{Score: 1, Weights: []float64{0.5, f}}}}
		if got := appendedQueryBody(t, "goal", 1, out, nil); len(got) != 0 || oracleQueryBody("goal", 1, out, nil) != nil {
			t.Errorf("weight %v: body %q, want empty", f, got)
		}
	}
}

// decodeBoth runs body through decodeQuery and decodeJSON, each behind
// a size cap (limit < 0: none), and fails unless both answer alike: the
// same verdict, status and error body, and on success the same request.
func decodeBoth(t testing.TB, body []byte, limit int64) {
	t.Helper()
	run := func(decode func(http.ResponseWriter, *http.Request, *QueryRequest) bool) (bool, QueryRequest, *httptest.ResponseRecorder) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/api/query", bytes.NewReader(body))
		if limit >= 0 {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		var req QueryRequest
		ok := decode(w, r, &req)
		return ok, req, w
	}
	okQ, reqQ, wQ := run(decodeQuery)
	okJ, reqJ, wJ := run(func(w http.ResponseWriter, r *http.Request, req *QueryRequest) bool {
		return decodeJSON(w, r.Body, req)
	})
	if okQ != okJ || (okQ && reqQ != reqJ) || wQ.Code != wJ.Code || !bytes.Equal(wQ.Body.Bytes(), wJ.Body.Bytes()) {
		t.Fatalf("body %.200q (cap %d): decodeQuery %v %+v %d %s, decodeJSON %v %+v %d %s",
			body, limit, okQ, reqQ, wQ.Code, wQ.Body, okJ, reqJ, wJ.Code, wJ.Body)
	}
}

// checkCanonical fails if the fast path accepts body differently from
// decodeJSON, or a body decodeJSON refuses.
func checkCanonical(t testing.TB, body []byte) (accepted bool) {
	t.Helper()
	var fast QueryRequest
	if !decodeCanonicalQuery(body, &fast) {
		return false
	}
	var slow QueryRequest
	w := httptest.NewRecorder()
	if !decodeJSON(w, bytes.NewReader(body), &slow) {
		t.Fatalf("fast path accepted %q, which decodeJSON refuses: %s", body, w.Body)
	}
	if fast != slow {
		t.Fatalf("%q: fast path decoded %+v, decodeJSON %+v", body, fast, slow)
	}
	return true
}

// queryDecodeSeeds are request bodies on both sides of the canonical
// subset's edge.
var queryDecodeSeeds = []string{
	`{"pattern":"goal -\u003e free_kick","top_k":10,"beam":4}`,
	`{"pattern":"a \u003c\u003e \u0026 \"q\" \\","cross_video":true,"similar_shots":true,"explain":true}`,
	`{"pattern":"goal","scope_video":3,"scope_from_ms":-9223372036854775808,"scope_to_ms":9223372036854775807,"timeout_ms":0}`,
	" \t\r\n{ \"pattern\" : \"goal\" , \"top_k\" : 5 } \n",
	`{}`,
	`{"pattern":"goal","pattern":"foul"}`,
	`{"pattern":"goal","top_k":-0}`,
	// Outside the subset: each goes to decodeJSON.
	`{"Pattern":"goal"}`,
	`{"pattern":"goal","unknown":1}`,
	`{"pattern":"goal","top_k":01}`,
	`{"pattern":"goal","top_k":1.0}`,
	`{"pattern":"goal","top_k":1e3}`,
	`{"pattern":"goal","top_k":9223372036854775808}`,
	`{"pattern":"goal","top_k":"5"}`,
	`{"pattern":"goal","top_k":null}`,
	`{"pattern":"\u003C\n\u00e9é"}`,
	`{"pattern":"goal","explain":tru}`,
	`{"pattern":"goal"} {}`,
	`{"pattern":"goal"}x`,
	`{"pattern":"goal",}`,
	`{"pattern":"goal"`,
	`[]`,
	``,
	"\xef\xbb\xbf{}",
}

// TestQueryRequestDecode pins the fast path to decodeJSON on the seed
// bodies and on json.Marshal of random requests, which must all take
// it, and pins the fallback's size and buffering rules on long bodies.
func TestQueryRequestDecode(t *testing.T) {
	for _, body := range queryDecodeSeeds {
		checkCanonical(t, []byte(body))
		for _, limit := range []int64{-1, 24} {
			decodeBoth(t, []byte(body), limit)
		}
	}
	rng := rand.New(rand.NewSource(1))
	printable := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = byte(0x20 + rng.Intn(0x5f))
		}
		return string(b)
	}
	num := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return int(rng.Uint64())
		default:
			return rng.Intn(2000) - 1000
		}
	}
	for i := 0; i < 2000; i++ {
		req := QueryRequest{
			Pattern: printable(), TopK: num(), Beam: num(),
			CrossVideo: rng.Intn(2) == 0, SimilarShots: rng.Intn(2) == 0, Explain: rng.Intn(2) == 0,
			ScopeVideo: num(), ScopeFromMS: num(), ScopeToMS: num(), TimeoutMS: num(),
		}
		if !checkCanonical(t, queryBody(t, req)) {
			t.Fatalf("canonical body %s declined", queryBody(t, req))
		}
	}

	// Bodies past the pooled buffer are decoded by decodeJSON from the
	// prefix read so far and the rest of the stream.
	long := queryBody(t, QueryRequest{Pattern: "goal" + strings.Repeat(" ", maxKeptBuf), TopK: 3})
	for _, body := range [][]byte{long, append(long[:len(long):len(long)], 'x')} {
		for _, limit := range []int64{-1, int64(len(long)), maxKeptBuf + 10} {
			decodeBoth(t, body, limit)
		}
	}
	// With no size cap, a stream after a valid object is refused at its
	// first non-space byte, having read at most the pooled prefix.
	stream := &countingReader{r: io.MultiReader(strings.NewReader(`{"pattern":"goal"} `), endless('x'))}
	w := httptest.NewRecorder()
	var req QueryRequest
	if decodeQuery(w, httptest.NewRequest(http.MethodPost, "/api/query", stream), &req) || w.Code != http.StatusBadRequest {
		t.Fatalf("endless trailing stream: status %d", w.Code)
	}
	if stream.n > 2*maxKeptBuf {
		t.Fatalf("read %d bytes of an endless trailing stream", stream.n)
	}
}

type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestCanonicalDecodeAllocs pins the fast path at one allocation: the
// pattern string.
func TestCanonicalDecodeAllocs(t *testing.T) {
	for _, body := range []string{
		`{"pattern":"goal -\u003e free_kick","top_k":10,"beam":4}`,
		`{"pattern":"goal","top_k":10,"explain":true,"scope_video":3}`,
	} {
		b := []byte(body)
		var req QueryRequest
		if n := testing.AllocsPerRun(100, func() {
			if !decodeCanonicalQuery(b, &req) {
				t.Fatalf("%s declined", body)
			}
		}); n != 1 {
			t.Errorf("%s: %v allocs, want 1", body, n)
		}
	}
}

// FuzzQueryRequestDecode: for any body, the fast path either declines
// or accepts it with the struct decodeJSON decodes, and decodeQuery as
// a whole answers exactly as decodeJSON, with and without a size cap.
func FuzzQueryRequestDecode(f *testing.F) {
	for _, body := range queryDecodeSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCanonical(t, body)
		decodeBoth(t, body, -1)
		decodeBoth(t, body, 32)
	})
}

// fuzzFloats are the float edges of encoding/json's spelling: both
// exponent cutoffs, the smallest subnormal, the largest finite, and
// negative zero.
var fuzzFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1e21, 9.99999e20, 1e20,
	5e-324, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 123456789.123456789, -2.5e-8}

// FuzzQueryResponseAppend builds random responses — odd pattern and
// feature text, edge and random floats, nil and empty slices, states
// with and without events, explanations — and requires the appender's
// bytes to equal json.Encoder's over the slab build.
func FuzzQueryResponseAppend(f *testing.F) {
	s, err := New(Config{Model: testModel(f)})
	if err != nil {
		f.Fatal(err)
	}
	snap := s.current.Load()
	f.Add("goal -> free_kick", "color_hist", int64(1), 0.5)
	f.Add("<&>\u2028\u2029\x00\x1f\x7f\"\\", "\xff\xfe", int64(2), 1e-7)
	f.Add("é✓𝄞", "\ufffd", int64(3), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, pattern, text string, seed int64, x float64) {
		rng := rand.New(rand.NewSource(seed))
		float := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return x
			case 1:
				return math.Float64frombits(rng.Uint64())
			default:
				return fuzzFloats[rng.Intn(len(fuzzFloats))]
			}
		}
		ints := func(n int, span int) []int {
			if n == 0 && rng.Intn(2) == 0 {
				return nil
			}
			out := make([]int, n)
			for i := range out {
				out[i] = rng.Intn(span+10) - 5
			}
			return out
		}
		floats := func(n int) []float64 {
			if n == 0 && rng.Intn(2) == 0 {
				return nil
			}
			out := make([]float64, n)
			for i := range out {
				out[i] = float()
			}
			return out
		}
		var ranking []retrieval.Match
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			ranking = make([]retrieval.Match, n)
		}
		for i := range ranking {
			steps := rng.Intn(4)
			m := &ranking[i]
			m.Score = float()
			m.States = ints(steps, snap.model.NumStates())
			m.Weights = floats(steps)
			if rng.Intn(4) > 0 {
				for _, v := range ints(steps, 1<<20) {
					m.Shots = append(m.Shots, videomodel.ShotID(v))
					m.Videos = append(m.Videos, videomodel.VideoID(-v))
				}
			}
		}
		var explain func(retrieval.Match) []api.StepExplanationJSON
		if rng.Intn(2) == 0 {
			explain = func(m retrieval.Match) []api.StepExplanationJSON {
				r := rand.New(rand.NewSource(seed ^ int64(len(m.States))))
				steps := make([]api.StepExplanationJSON, r.Intn(3))
				for i := range steps {
					st := &steps[i]
					st.Pi, st.Transition, st.Sim, st.Weight = float(), float(), float(), float()
					st.CrossVideo = r.Intn(2) == 0
					for k := r.Intn(3); k > 0; k-- {
						st.Features = append(st.Features, api.FeatureContributionJSON{Feature: text, Event: pattern, Term: float()})
					}
				}
				return steps
			}
		}
		out := &queryOutcome{snap: snap, matches: ranking, fresh: rng.Intn(3) - 1, cost: retrieval.Cost{
			SimEvals: rng.Int(), EdgeEvals: -rng.Intn(5), VideosSeen: rng.Intn(9),
			Truncated: rng.Intn(2) == 0, DegradedShards: rng.Intn(3) - 1,
		}}
		// explain draws from the same stream as the ranking, so each side
		// gets its own copy of the generator's state.
		state := rng.Int63()
		rng.Seed(state)
		got := appendedQueryBody(t, pattern, rng.Intn(4), out, explain)
		rng.Seed(state)
		if want := oracleQueryBody(pattern, rng.Intn(4), out, explain); !bytes.Equal(got, want) {
			t.Fatalf("appender differs from json.Encoder:\n got %q\nwant %q", got, want)
		}
	})
}
