package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/videomodel"
)

// reference is the harness's own engine over the deployment's boot
// model: what served rankings are compared against, and what the tracer
// replays stages on.
type reference struct {
	model  *hmmm.Model
	engine *retrieval.Engine
	domain *videomodel.Domain
}

func newReference(model *hmmm.Model) (*reference, error) {
	engine, err := retrieval.NewEngine(model, engineOptions)
	if err != nil {
		return nil, err
	}
	return &reference{model: model, engine: engine, domain: videomodel.Soccer()}, nil
}

// requestOptions resolves one request's retrieval options the way
// server.handleQuery does.
func requestOptions(req *api.QueryRequest) retrieval.Options {
	opts := engineOptions
	if req.TopK > 0 {
		opts.TopK = req.TopK
	}
	if req.Beam > 0 {
		opts.Beam = req.Beam
	}
	opts.CrossVideo = opts.CrossVideo || req.CrossVideo
	opts.AnnotatedOnly = !req.SimilarShots
	return opts
}

// direct answers a request body on the reference engine exactly as the
// server assembles an answer: every compiled linear pattern retrieved,
// then one MergeRanked.
type directAnswer struct {
	opts    retrieval.Options
	queries []retrieval.Query
	// perQuery holds each linear pattern's own ranking.
	perQuery [][]retrieval.Match
	merged   []retrieval.Match
}

func (r *reference) direct(body []byte) (*directAnswer, error) {
	var req api.QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	queries, err := matn.CompileStringDomain(req.Pattern, r.domain)
	if err != nil {
		return nil, err
	}
	a := &directAnswer{opts: requestOptions(&req), queries: queries}
	engine := r.engine.WithOptions(a.opts)
	var all []retrieval.Match
	for _, q := range queries {
		res, err := engine.Retrieve(q)
		if err != nil {
			return nil, err
		}
		a.perQuery = append(a.perQuery, res.Matches)
		all = append(all, res.Matches...)
	}
	a.merged = retrieval.MergeRanked(all, a.opts.TopK)
	return a, nil
}

// servedMatches converts a response's ranking back to engine matches.
// encoding/json writes float64s in a form that parses back to the same
// bits, so the comparison downstream stays bitwise.
func servedMatches(resp *api.QueryResponse) []retrieval.Match {
	out := make([]retrieval.Match, len(resp.Matches))
	for i, m := range resp.Matches {
		out[i] = retrieval.Match{States: m.States, Weights: m.Weights, Score: m.Score}
		for j := range m.Shots {
			out[i].Shots = append(out[i].Shots, videomodel.ShotID(m.Shots[j]))
			out[i].Videos = append(out[i].Videos, videomodel.VideoID(m.Videos[j]))
		}
	}
	return out
}

// gateTB lets a non-test binary use retrievaltest's assertions: Fatalf
// panics with a gateFailure that require turns back into an error.
type gateTB struct{ testing.TB }

type gateFailure string

func (gateTB) Helper() {}

func (gateTB) Fatalf(format string, args ...any) {
	panic(gateFailure(fmt.Sprintf(format, args...)))
}

func require(f func(tb testing.TB)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			gf, ok := r.(gateFailure)
			if !ok {
				panic(r)
			}
			err = errors.New(string(gf))
		}
	}()
	f(gateTB{})
	return nil
}

// gate is the correctness check before every timed phase. For each
// distinct scheduled pattern the served ranking must equal the
// reference engine's bit for bit — on fleet_scatter that reference is
// the unsharded local engine — and, at paper scale, every linear
// pattern must agree with the brute-force oracle: exactly for single
// steps searched with a beam that covers top_k (a narrower beam keeps
// fewer paths per video than the oracle ranks), order- and
// score-consistent for everything else. The verified
// response becomes the pattern's expectation for the timed phase
// (static == false keeps only the shape check: live_mixed's archive
// grows under the querier).
func gate(d *deployment, ref *reference, sched []entry, oracle, static bool) error {
	verified := make(map[string]expectation)
	var buf bytes.Buffer
	for i := range sched {
		e := &sched[i]
		if x, ok := verified[string(e.body)]; ok {
			e.expect = x
			continue
		}
		status, err := post(d.client, d.url+"/api/query", e.body, &buf)
		if err != nil {
			return fmt.Errorf("gate %q: %w", e.pattern, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("gate %q: status %d: %s", e.pattern, status, strings.TrimSpace(buf.String()))
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			return fmt.Errorf("gate %q: decoding response: %w", e.pattern, err)
		}
		if resp.Cost.Truncated || resp.Cost.DegradedShards != 0 {
			return fmt.Errorf("gate %q: served a partial ranking (truncated=%v degraded_shards=%d)",
				e.pattern, resp.Cost.Truncated, resp.Cost.DegradedShards)
		}
		if len(resp.Matches) == 0 {
			return fmt.Errorf("gate %q: no matches; the schedule must exercise the ranking path", e.pattern)
		}
		want, err := ref.direct(e.body)
		if err != nil {
			return fmt.Errorf("gate %q: reference engine: %w", e.pattern, err)
		}
		if err := require(func(tb testing.TB) {
			retrievaltest.RequireSameMatches(tb, "served vs direct engine", want.merged, servedMatches(&resp))
			if !oracle {
				return
			}
			for qi, q := range want.queries {
				got := want.perQuery[qi]
				if retrievaltest.SingleStep(q) && want.opts.Beam >= want.opts.TopK {
					retrievaltest.RequireSameMatches(tb, "engine vs brute force",
						retrievaltest.Oracle(tb, ref.model, q, want.opts.TopK).Matches, got)
				} else {
					retrievaltest.RequireOracleConsistent(tb, "engine vs brute force",
						retrievaltest.Oracle(tb, ref.model, q, retrievaltest.OracleLimit), got)
				}
			}
		}); err != nil {
			return fmt.Errorf("gate %q: %w", e.pattern, err)
		}
		e.expect.cost = resp.Cost
		if static {
			e.expect.body = append([]byte(nil), buf.Bytes()...)
		}
		verified[string(e.body)] = e.expect
	}
	return nil
}

// anyEvent is an alternation over the whole vocabulary: scoped to one
// video it matches whatever the ingest classifier annotated there.
func anyEvent() string {
	var names []string
	for _, e := range videomodel.AllEvents() {
		names = append(names, e.String())
	}
	return strings.Join(names, " | ")
}

// gateAcked is live_mixed's post-run check: every video the server
// acknowledged must be returned by a query scoped to it.
func gateAcked(d *deployment, ops []ingestOp) error {
	pattern := anyEvent()
	for _, op := range ops {
		if !op.ok {
			continue
		}
		resp, err := d.api.Query(context.Background(), api.QueryRequest{Pattern: pattern, ScopeVideo: op.videoID, TopK: 1})
		if err != nil {
			return fmt.Errorf("acked video %d: %w", op.videoID, err)
		}
		if len(resp.Matches) == 0 {
			return fmt.Errorf("acked video %d is not queryable", op.videoID)
		}
	}
	return nil
}
