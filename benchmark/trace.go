package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/coalesce"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// Span names. The per-query stages are recorded under a "replay" parent
// in the order server.handleQuery runs them; the rest are probes.
const (
	spRoundtrip = iota
	spReplay
	spDecode
	spCompile
	spKey
	spEstimate
	spRetrieve
	spCoordRetrieve
	spMerge
	spEncode
	spRPCRoundtrip
	spRPCService
	spGroupRetrieve
	spDeltaRetrieve
	spHMMMBuild
	spEngineBuild
	spServerNew
	spShardSplit
	spStoreSaveCompact
	spStoreLoadCompact
	spStoreSaveDense
	spStoreLoadDense
	spIndexBuild
	spIndexCandidates
	spIngestSegment
	spDeltaBuild
	spJournalPersist
	spCompactRebuild
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRoundtrip:        "server.http_roundtrip",
	spReplay:           "replay",
	spDecode:           "api.decode",
	spCompile:          "matn.compile",
	spKey:              "coalesce.key",
	spEstimate:         "retrieval.estimate",
	spRetrieve:         "retrieval.retrieve",
	spCoordRetrieve:    "coord.retrieve",
	spMerge:            "retrieval.merge",
	spEncode:           "api.encode",
	spRPCRoundtrip:     "rpc.roundtrip",
	spRPCService:       "rpc.service",
	spGroupRetrieve:    "shard.group_retrieve",
	spDeltaRetrieve:    "live.delta_retrieve",
	spHMMMBuild:        "hmmm.build",
	spEngineBuild:      "retrieval.engine_build",
	spServerNew:        "server.new",
	spShardSplit:       "shard.split",
	spStoreSaveCompact: "store.save_compact",
	spStoreLoadCompact: "store.load_compact",
	spStoreSaveDense:   "store.save_dense",
	spStoreLoadDense:   "store.load_dense",
	spIndexBuild:       "index.build",
	spIndexCandidates:  "index.candidates",
	spIngestSegment:    "ingest.segment",
	spDeltaBuild:       "live.delta_build",
	spJournalPersist:   "live.journal_persist",
	spCompactRebuild:   "live.compact_rebuild",
}

// span is one timed interval: what ran, when (ns since the trace
// began), which span caused it (-1 for a root) and for which scheduled
// query (-1 for a probe outside the query loop).
type span struct {
	start, end int64
	parent     int32
	query      int32
	name       uint8
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (t *tracer) begin(name int, parent, query int32) int32 {
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, query: query, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name int, query int32, start, end time.Time) {
	t.spans = append(t.spans, span{
		name: uint8(name), parent: -1, query: query,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)),
	})
}

// time records fn as a probe span.
func (t *tracer) time(name int, fn func() error) error {
	i := t.begin(name, -1, -1)
	err := fn()
	t.end(i)
	return err
}

// selfTimes returns, per span name, every span's self time in
// microseconds: its duration minus the part its child spans cover.
func (t *tracer) selfTimes() [numSpanNames][]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var out [numSpanNames][]float64
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], float64(self[i])/1e3)
	}
	return out
}

// shellTimes returns, per traced query, the round trip minus the sum of
// the stages replayed for it, in microseconds: what net/http, the
// middleware chain, admission and the coalescer cost around the layers
// the harness can call directly.
func (t *tracer) shellTimes() []float64 {
	replayed := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == spReplay {
			replayed[s.query] += s.end - s.start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == spRoundtrip {
			out = append(out, float64(s.end-s.start-replayed[s.query])/1e3)
		}
	}
	return out
}

// traceWriteQueries bounds the trace file: spans of the first 2000
// scheduled queries (100 full schedule cycles) plus every probe. The
// metrics are computed over all spans in memory.
const traceWriteQueries = 2000

type spanJSON struct {
	Name    string `json:"name"`
	Query   int32  `json:"query"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// write dumps the trace to <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	queries := 0
	var out []spanJSON
	for i, s := range t.spans {
		if s.name == spRoundtrip {
			queries++
		}
		if s.query >= traceWriteQueries {
			continue
		}
		out = append(out, spanJSON{
			Name: spanNames[s.name], Query: s.query, ID: i, Parent: s.parent,
			StartNS: s.start, EndNS: s.end,
		})
	}
	doc := struct {
		Workload        string     `json:"workload"`
		Seed            uint64     `json:"seed"`
		GOMAXPROCS      int        `json:"gomaxprocs"`
		QueriesTraced   int        `json:"queries_traced"`
		QueriesWritten  int        `json:"queries_written"`
		SpansInMemory   int        `json:"spans_in_memory"`
		ParentSemantics string     `json:"parent"`
		Spans           []spanJSON `json:"spans"`
	}{
		Workload: workload, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		QueriesTraced: queries, QueriesWritten: min(queries, traceWriteQueries),
		SpansInMemory:   len(t.spans),
		ParentSemantics: "id of the span that caused this one, -1 for a root; query -1 marks a probe outside the query loop",
		Spans:           out,
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sink keeps replayed results alive so the compiler cannot drop the
// calls that produced them.
var sink struct {
	key  string
	est  int
	size int
}

// replayer repeats, through each package's public API and in the order
// server.handleQuery runs them, the stages of the query the querier
// just completed. The residual against the measured round trip is the
// shell's share.
type replayer struct {
	tr  *tracer
	in  *inputs
	ref *reference
	d   *deployment
	buf bytes.Buffer
	err error

	// Probe readings that are not spans.
	engineMB       float64
	indexMB        float64
	compactBytes   int64
	retrieveAllocs []float64

	// Fleet probes (nil off fleet_scatter): one shard over the wire, the
	// same shard's service called directly, and the in-process group.
	rpcClient *rpc.Client
	group     *shard.Group
	// deltaEngine, on live_mixed, searches a harness-built delta.
	deltaEngine *retrieval.Engine
}

func (r *replayer) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// searcher is the retrieval contract the engine, the coordinator and the
// shard group all satisfy.
type searcher interface {
	RetrieveContext(ctx context.Context, q retrieval.Query) (*retrieval.Result, error)
}

func retrieveAll(ctx context.Context, s searcher, queries []retrieval.Query) ([]retrieval.Match, retrieval.Cost, error) {
	var all []retrieval.Match
	var cost retrieval.Cost
	for _, q := range queries {
		res, err := s.RetrieveContext(ctx, q)
		if err != nil {
			return nil, cost, err
		}
		all = append(all, res.Matches...)
		cost.Add(res.Cost)
	}
	return all, cost, nil
}

func (r *replayer) after(query int, e *entry, start, end time.Time) {
	tr, qid := r.tr, int32(query)
	tr.add(spRoundtrip, qid, start, end)
	root := tr.begin(spReplay, -1, qid)

	s := tr.begin(spDecode, root, qid)
	var req api.QueryRequest
	err := json.NewDecoder(bytes.NewReader(e.body)).Decode(&req)
	tr.end(s)
	if err != nil {
		r.fail(err)
		return
	}

	s = tr.begin(spCompile, root, qid)
	network, err := matn.ParseDomain(req.Pattern, r.ref.domain)
	var queries []retrieval.Query
	var canonical string
	if err == nil {
		queries, err = network.Compile()
	}
	if err == nil {
		canonical, err = network.Format()
	}
	tr.end(s)
	if err != nil {
		r.fail(err)
		return
	}
	opts := requestOptions(&req)

	s = tr.begin(spKey, root, qid)
	sink.key = coalesce.QueryKey(1, 0, canonical, opts, nil, int64(queryTimeout))
	tr.end(s)

	engine := r.ref.engine.WithOptions(opts)
	s = tr.begin(spEstimate, root, qid)
	est := 0
	for _, q := range queries {
		est += engine.EstimateCost(q)
	}
	sink.est = est
	tr.end(s)

	ctx := context.Background()
	var search searcher = engine
	name := spRetrieve
	if r.d.coordinator != nil {
		search, name = r.d.coordinator.WithOptions(opts), spCoordRetrieve
	}
	s = tr.begin(name, root, qid)
	all, cost, err := retrieveAll(ctx, search, queries)
	tr.end(s)
	if err != nil {
		r.fail(err)
		return
	}

	s = tr.begin(spMerge, root, qid)
	merged := retrieval.MergeRanked(all, opts.TopK)
	tr.end(s)

	s = tr.begin(spEncode, root, qid)
	resp := api.QueryResponse{
		Pattern: req.Pattern, Expanded: len(queries),
		Cost: api.CostJSON{SimEvals: cost.SimEvals, EdgeEvals: cost.EdgeEvals, VideosSeen: cost.VideosSeen},
	}
	for i, m := range merged {
		mj := api.MatchJSON{Rank: i + 1, Score: m.Score, States: m.States, Weights: m.Weights}
		for j, shot := range m.Shots {
			mj.Shots = append(mj.Shots, int(shot))
			mj.Videos = append(mj.Videos, int(m.Videos[j]))
		}
		for _, st := range m.States {
			var names []string
			for _, ev := range r.ref.model.States[st].Events {
				names = append(names, r.ref.domain.EventName(ev))
			}
			mj.Events = append(mj.Events, names)
		}
		resp.Matches = append(resp.Matches, mj)
	}
	r.buf.Reset()
	err = json.NewEncoder(&r.buf).Encode(resp)
	sink.size = r.buf.Len()
	tr.end(s)
	tr.end(root)
	if err != nil {
		r.fail(err)
		return
	}

	// Probes beside the replay: not part of the shell residual.
	if r.rpcClient != nil {
		wire := &rpc.RetrieveRequest{Query: queries[0], Options: rpc.FromOptions(opts)}
		s = tr.begin(spRPCRoundtrip, -1, qid)
		_, err = r.rpcClient.Retrieve(ctx, wire)
		tr.end(s)
		if err != nil {
			r.fail(err)
		}
		s = tr.begin(spRPCService, -1, qid)
		_, err = r.d.services[0].Retrieve(ctx, wire)
		tr.end(s)
		if err != nil {
			r.fail(err)
		}
		s = tr.begin(spGroupRetrieve, -1, qid)
		_, _, err = retrieveAll(ctx, r.group.WithOptions(opts), queries)
		tr.end(s)
		if err != nil {
			r.fail(err)
		}
		s = tr.begin(spRetrieve, -1, qid)
		_, _, err = retrieveAll(ctx, engine, queries)
		tr.end(s)
		if err != nil {
			r.fail(err)
		}
	}
	if r.deltaEngine != nil {
		dopts := opts
		dopts.NoSimCache = true
		s = tr.begin(spDeltaRetrieve, -1, qid)
		_, _, err = retrieveAll(ctx, r.deltaEngine.WithOptions(dopts), queries)
		tr.end(s)
		if err != nil {
			r.fail(err)
		}
	}
}

// p50 of a span name's self times; 0 when the layer never ran.
func p50(self [numSpanNames][]float64, name int) float64 {
	if len(self[name]) == 0 {
		return 0
	}
	s := self[name]
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// settledHeap returns HeapAlloc after two collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocsPerRun is testing.AllocsPerRun without the testing package's
// GOMAXPROCS(1) pin: mallocs per call of fn, everything else idle.
func allocsPerRun(runs int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs)
}
