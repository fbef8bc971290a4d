// Package server exposes the HMMM retrieval system over HTTP+JSON: the
// programmatic equivalent of the paper's Figure-5 client/server soccer
// video retrieval interface. Clients issue MATN pattern queries, browse
// the archive, send positive feedback on retrieved patterns, and trigger
// (or let the threshold trigger) offline retraining.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/coalesce"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/features"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Server serves the retrieval API over one HMMM model.
//
// Serving uses copy-on-write snapshots instead of a model lock: the
// live (model, engine) pair is an immutable snapshot published through
// an atomic pointer, so query handlers load it with one atomic read and
// never block — not even while a retrain is running. Retraining clones
// the model, applies the accumulated feedback to the clone, builds a
// fresh engine (with its derived caches) over it, and atomically swaps
// the new snapshot in; in-flight queries finish on the old snapshot.
// retrainMu serializes retrains and log persistence only — it is never
// taken on the query path. The feedback log has its own internal mutex.
type Server struct {
	// current is the serving snapshot; handlers must Load it exactly once
	// per request and use that pair throughout, so every response reflects
	// one consistent model.
	current atomic.Pointer[snapshot]
	// retrainMu serializes model replacement (retrain + publish +
	// persist). Query handlers never acquire it.
	retrainMu sync.Mutex
	opts      retrieval.Options
	log       *feedback.Log
	trainer   *feedback.Trainer
	logPath   string

	// Resilience knobs (see Config).
	fs           atomicwrite.FS
	logf         func(format string, args ...any)
	maxBytes     int64
	maxInflight  int
	queryTimeout time.Duration
	// draining flips readiness off during graceful shutdown.
	draining atomic.Bool
	// sem is the admission semaphore (nil = unlimited).
	sem chan struct{}
	// lanes is the two-lane priority admission controller for /api/query
	// (nil = single-semaphore admission via sem). When enabled, the
	// generic gate skips the query route and lane slots are consumed by
	// coalesce leaders only — waiters ride for free.
	lanes *laneController
	// coalescer deduplicates identical in-flight queries (nil = off).
	coalescer *coalesce.Group[*queryOutcome]

	// metrics is the server's observability catalog; its inflight gauge
	// (maintained by the admission middleware) is the single source for
	// the in-flight count everywhere it is reported. slowLog, when
	// enabled, receives one JSON line per query at/over its threshold.
	metrics *serverMetrics
	slowLog *obs.SlowLog

	// coordinator, when non-nil, serves /api/query by scatter-gather over
	// remote shard servers (see Config.Coordinator). The local snapshot
	// engine still serves browse, Explain, and cost estimation.
	coordinator *coord.Coordinator

	// live, when non-nil, accepts new videos at runtime: journaled
	// durably, served through the snapshot's delta sub-model, and folded
	// into the main model by background compaction (see server/live.go).
	live *liveState

	// federation, when non-nil, serves POST /api/query/federated by
	// fanning one pattern over several per-domain archives (see
	// internal/fed). The main model remains one ordinary member-shaped
	// archive; federation members carry their own models.
	federation *fed.Federation

	// patterns memoizes MATN parse + compile + canonical rendering for
	// /api/query and /api/videos/rank (see pattern.go).
	patterns patternMemo
}

// snapshot is one immutable published generation: a trained model and
// the engine whose caches were built from exactly that model. Nothing
// is mutated after publication. gen counts generations for the health
// endpoint (1 = boot model).
type snapshot struct {
	model  *hmmm.Model
	engine *retrieval.Engine
	gen    uint64
	// delta is the live-ingest sub-model served alongside the main model
	// (nil when live ingest is off or the delta is empty). Queries
	// gather (main retriever, delta.Engine) with delta states lifted
	// past model.NumStates(). Swapped through the same pointer as
	// everything else: one Load observes one consistent (model, delta)
	// pair.
	delta *live.Delta
	// domain is the model's event vocabulary, resolved once from the
	// model's domain stamp at snapshot build: pattern parsing and every
	// event-name rendering in responses go through it. The delta
	// sub-model shares it (live ingest extends the same archive).
	domain *videomodel.Domain
}

// withDelta derives a snapshot serving the same published generation
// with a different delta sub-model: engine and gen are shared (they
// are immutable), so an ingest publish never pays an engine rebuild.
func (sn *snapshot) withDelta(d *live.Delta) *snapshot {
	next := *sn
	next.delta = d
	return &next
}

// stateEvents resolves a (possibly delta-remapped) global state index to
// its event annotations, or nil when the index is outside both models.
func (sn *snapshot) stateEvents(st int) []videomodel.Event {
	if st >= 0 && st < sn.model.NumStates() {
		return sn.model.States[st].Events
	}
	if d := sn.delta; d != nil {
		if ds := st - d.Offset; ds >= 0 && ds < d.Model.NumStates() {
			return d.Model.States[ds].Events
		}
	}
	return nil
}

// Config bundles the server dependencies.
type Config struct {
	Model   *hmmm.Model
	Options retrieval.Options
	// RetrainThreshold is the feedback count that triggers automatic
	// offline retraining; <= 0 disables auto-retraining (manual
	// /api/retrain still works).
	RetrainThreshold int
	// FeedbackLogPath, when non-empty, persists the feedback log: loaded
	// at startup if the file exists, rewritten after every feedback and
	// retrain. The accumulated positive patterns are the system's learned
	// user knowledge and must survive restarts.
	FeedbackLogPath string
	// MaxRequestBytes caps request body size; oversized bodies get 413.
	// 0 means DefaultMaxRequestBytes; negative disables the limit.
	MaxRequestBytes int64
	// MaxInflight caps concurrently served requests; excess requests are
	// shed immediately with 503 + Retry-After (the health endpoint is
	// exempt so probes keep working under overload). 0 disables shedding.
	MaxInflight int
	// QueryTimeout bounds each /api/query execution; on expiry the
	// response carries the matches ranked so far with cost.truncated
	// set. 0 disables the server-side deadline (a request may still set
	// its own via timeout_ms, clamped to this value when configured).
	QueryTimeout time.Duration
	// FS is the filesystem used for feedback-log persistence; nil means
	// the real one. Tests inject failures through it.
	FS atomicwrite.FS
	// Logf receives operational warnings (corrupt-log recovery, handler
	// panics). nil means the standard logger.
	Logf func(format string, args ...any)
	// Registry receives the server's metrics; nil means a fresh private
	// registry (metrics are always collected — their cost is a handful of
	// atomic adds per request). Pass a shared registry to co-locate other
	// subsystems' metrics (e.g. the store's recovery counters) on the
	// same /metrics page.
	Registry *obs.Registry
	// SlowQueryThreshold enables the slow-query log: queries taking at
	// least this long emit one JSON line to SlowQueryWriter. 0 disables.
	SlowQueryThreshold time.Duration
	// SlowQueryWriter receives slow-query JSON lines; nil disables the
	// slow-query log regardless of threshold.
	SlowQueryWriter io.Writer
	// Coalesce deduplicates identical in-flight /api/query requests:
	// requests whose canonical pattern, result-affecting options,
	// deadline budget, and model generation all match share one
	// retrieval execution, and the single ranking fans out to every
	// caller. Results are bit-identical to uncoalesced serving. Off by
	// default (hmmmd enables it via -coalesce).
	Coalesce bool
	// FastLaneCost, when > 0, replaces the single-semaphore admission of
	// /api/query with the two-lane controller: queries whose estimated
	// lattice cost (Engine.EstimateCost) is at or under this threshold
	// take the fast lane; costlier queries take the heavy lane, whose
	// concurrency is bounded and whose bounded wait queue sheds with
	// 503 + Retry-After before a queued query's deadline could expire.
	// The lanes split MaxInflight slots (heavy gets a quarter, minimum
	// one). 0 keeps the single-semaphore behavior.
	FastLaneCost int
	// HeavyQueue bounds how many heavy queries may wait for a heavy-lane
	// slot (0 = DefaultHeavyQueue). Only meaningful with FastLaneCost.
	HeavyQueue int
	// Coordinator, when non-nil, serves /api/query retrievals by
	// network scatter-gather over remote shard servers (cmd/hmmm-shardd)
	// instead of the local engine. The local Model must still be the
	// same archive the remote shards were split from: browse endpoints,
	// Explain, and lane cost estimation read it directly.
	Coordinator *coord.Coordinator
	// Live, when non-nil, enables runtime ingest: POST /api/ingest
	// accepts videos into a crash-safe journal and a delta sub-model
	// served alongside the main model, with background compaction
	// folding the delta into full rebuilds (DESIGN.md §5i). The config's
	// Archive/Features must be the corpus Model was built from. Mutually
	// exclusive with Coordinator (a coordinator owns no model to extend;
	// ingest on the shard owners instead).
	Live *live.Config
	// Federation, when non-nil, additionally serves POST
	// /api/query/federated: one MATN pattern fanned over several
	// per-domain archives and merged into a cross-domain ranking (see
	// internal/fed). Independent of the main Model, which keeps serving
	// every single-archive endpoint.
	Federation *fed.Federation
}

// DefaultMaxRequestBytes caps request bodies when Config.MaxRequestBytes
// is zero. Every legitimate API body is tiny (a pattern string, a list
// of state ids); 1 MiB is generous.
const DefaultMaxRequestBytes = 1 << 20

// New validates the model and returns a server.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, errors.New("server: nil model")
	}
	if err := cfg.Model.Validate(1e-6); err != nil {
		return nil, fmt.Errorf("server: invalid model: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	metrics := newServerMetrics(reg)
	// The store family lives on the same registry so /metrics covers
	// model-load recovery events; hmmmd installs it before loading the
	// boot model (registration is idempotent — same counters).
	store.SetMetrics(store.NewMetrics(reg))
	// Engines carry the retrieval metrics in their options: every engine
	// built here or by a retrain (both derive from s.opts) reports into
	// the same counters.
	cfg.Options.Metrics = metrics.retrieval
	// WaitReady records the fleet's domain; "" means it never ran
	// (hmmmd -coord-wait 0), which skips the check.
	if co := cfg.Coordinator; co != nil && co.Domain() != "" && co.Domain() != cfg.Model.DomainName() {
		var addrs []string
		for _, ep := range co.Stats().Endpoints {
			addrs = append(addrs, ep.Addr)
		}
		return nil, fmt.Errorf("server: shard servers %s serve the %q domain, the model is a %q model",
			strings.Join(addrs, ", "), co.Domain(), cfg.Model.DomainName())
	}
	s := &Server{
		opts:         cfg.Options,
		coordinator:  cfg.Coordinator,
		log:          feedback.NewLog(),
		trainer:      feedback.NewTrainer(cfg.RetrainThreshold),
		logPath:      cfg.FeedbackLogPath,
		fs:           cfg.FS,
		logf:         cfg.Logf,
		maxBytes:     cfg.MaxRequestBytes,
		maxInflight:  cfg.MaxInflight,
		queryTimeout: cfg.QueryTimeout,
		metrics:      metrics,
		slowLog:      obs.NewSlowLog(cfg.SlowQueryWriter, cfg.SlowQueryThreshold),
		federation:   cfg.Federation,
	}
	s.trainer.Metrics = &feedback.TrainerMetrics{
		Retrains: metrics.retrains,
		Failures: metrics.retrainFailures,
		Seconds:  metrics.retrainSeconds,
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxRequestBytes
	}
	if s.maxInflight > 0 {
		s.sem = make(chan struct{}, s.maxInflight)
	}
	if cfg.FastLaneCost > 0 {
		total := s.maxInflight
		if total <= 0 {
			total = defaultLaneSlots()
		}
		heavy := total / 4
		if heavy < 1 {
			heavy = 1
		}
		fast := total - heavy
		if fast < 1 {
			fast = 1
		}
		queue := cfg.HeavyQueue
		if queue <= 0 {
			queue = DefaultHeavyQueue
		}
		s.lanes = newLaneController(cfg.FastLaneCost, fast, heavy, queue, metrics)
	}
	if cfg.Coalesce {
		s.coalescer = coalesce.NewGroup[*queryOutcome]()
		s.coalescer.Requests = metrics.coalesceRequests
		s.coalescer.Leaders = metrics.coalesceLeaders
		s.coalescer.Hits = metrics.coalesceHits
	}
	boot, err := s.newSnapshot(cfg.Model, 1)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.current.Store(boot)
	if s.logPath != "" {
		loaded, err := loadLogRecover(s.logPath, s.logf, metrics)
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			s.log = loaded
		}
	}
	if cfg.Live != nil {
		if err := s.initLive(cfg.Live); err != nil {
			return nil, err
		}
	}
	// Scrape-time gauges read their source directly, so they can never
	// drift from the values /api/health reports.
	reg.GaugeFunc("hmmm_model_generation",
		"Published model snapshot generation (1 = boot model).",
		func() float64 { return float64(s.current.Load().gen) })
	reg.GaugeFunc("hmmm_feedback_pending",
		"Feedback marks accumulated toward the next retrain.",
		func() float64 { return float64(s.log.Pending()) })
	if s.live != nil {
		reg.GaugeFunc("hmmm_ingest_fresh_videos",
			"Videos accepted by live ingest and served from the delta sub-model.",
			func() float64 { return float64(s.current.Load().delta.Len()) })
		reg.GaugeFunc("hmmm_ingest_delta_generation",
			"Delta sub-model generation (increments per accepted video).",
			func() float64 { return float64(s.current.Load().delta.Generation()) })
	}
	return s, nil
}

// newSnapshot builds one publishable generation over model: its domain
// and its engine.
func (s *Server) newSnapshot(model *hmmm.Model, gen uint64) (*snapshot, error) {
	domain, ok := videomodel.DomainByName(model.Domain)
	if !ok {
		return nil, fmt.Errorf("model stamped with unknown domain %q (have %s)",
			model.Domain, strings.Join(videomodel.DomainNames(), ", "))
	}
	engine, err := retrieval.NewEngine(model, s.opts)
	if err != nil {
		return nil, fmt.Errorf("building engine: %w", err)
	}
	return &snapshot{model: model, engine: engine, gen: gen, domain: domain}, nil
}

// loadLogRecover loads the feedback log through atomicwrite.Recover.
// Damage never fails startup: the last good candidate wins with a
// WARNING, and with none left the server starts with an empty log
// (nil, nil), as it does when no log exists. Only a real I/O error
// fails it. Recovery events also feed the metrics.
func loadLogRecover(path string, logf func(string, ...any), m *serverMetrics) (*feedback.Log, error) {
	var l *feedback.Log
	from, corrupt, err := atomicwrite.Recover(path, func(p string) (err error) {
		if l, err = feedback.LoadLog(p); errors.Is(err, atomicwrite.ErrCorrupt) {
			logf("server: feedback log %s unusable (%v), trying next recovery candidate", p, err)
		}
		return err
	})
	m.logCorrupt.Add(uint64(corrupt))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, nil
	case errors.Is(err, atomicwrite.ErrCorrupt):
		logf("server: WARNING: feedback log %s corrupt with no usable recovery candidate (%v); starting with an empty log",
			path, err)
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("server: loading feedback log: %w", err)
	}
	if from != path {
		m.logRecoveries.Inc()
		logf("server: WARNING: feedback log %s corrupt or missing; recovered %d patterns from %s",
			path, l.Len(), from)
	}
	return l, nil
}

// persistLog rewrites the feedback log file if persistence is
// configured: a checksummed snapshot through the durable atomic-replace
// helper (temp file fsync, previous version kept as .bak, rename,
// directory fsync), so a crash at any point leaves a loadable log.
// Called with retrainMu held (the log itself is internally locked;
// retrainMu keeps file rewrites ordered).
func (s *Server) persistLog() error {
	if s.logPath == "" {
		return nil
	}
	err := atomicwrite.Write(s.fs, s.logPath, s.log.Save)
	if err != nil {
		s.metrics.persistFailures.Inc()
	}
	return err
}

// Handler returns the HTTP routes wrapped in the resilience middleware
// (panic recovery, admission control, request-size limits); see wrap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/health", s.handleHealth)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /api/events", s.handleEvents)
	mux.HandleFunc("GET /api/videos", s.handleVideos)
	mux.HandleFunc("GET /api/states/{id}", s.handleState)
	mux.HandleFunc("POST /api/videos/rank", s.handleRankVideos)
	mux.HandleFunc("GET /api/videos/{id}/similar", s.handleSimilarVideos)
	mux.HandleFunc("POST /api/parse", s.handleParse)
	mux.HandleFunc("POST /api/query", s.handleQuery)
	mux.HandleFunc("POST /api/query/federated", s.handleFederatedQuery)
	mux.HandleFunc("POST /api/ingest", s.handleIngest)
	mux.HandleFunc("POST /api/feedback", s.handleFeedback)
	mux.HandleFunc("POST /api/retrain", s.handleRetrain)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	return s.wrap(mux)
}

// API payload types are defined in package api and aliased here for
// convenience.
type (
	QueryRequest     = api.QueryRequest
	ShotResponse     = api.ShotResponse
	RankResponse     = api.RankResponse
	ParseResponse    = api.ParseResponse
	FeedbackRequest  = api.FeedbackRequest
	FeedbackResponse = api.FeedbackResponse
	StatsResponse    = api.StatsResponse
	VideoJSON        = api.VideoJSON
	ErrorResponse    = api.ErrorResponse
)

// handleHealth reports liveness and readiness in one response: any
// answer at all is liveness; the Ready flag (and a 503 while draining)
// is what a load balancer keys off to stop routing new traffic during
// graceful shutdown while in-flight requests finish.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.current.Load()
	resp := api.HealthResponse{
		Status:          "ok",
		Ready:           true,
		ModelGeneration: snap.gen,
		PendingFeedback: s.log.Pending(),
		Inflight:        int(s.metrics.inflight.Value()),
		MaxInflight:     s.maxInflight,
		Lanes:           s.lanes.lanes(),
		Ingest:          s.ingestHealth(snap),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Ready = false
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.current.Load()
	m := snap.model
	counts := make(map[string]int)
	for _, st := range m.States {
		for _, e := range st.Events {
			counts[snap.domain.EventName(e)]++
		}
	}
	var coordStats *api.CoordStatsJSON
	if s.coordinator != nil {
		coordStats = s.coordinator.Stats()
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Videos:           m.NumVideos(),
		States:           m.NumStates(),
		Concepts:         m.NumConcepts(),
		Features:         m.K(),
		DistinctPatterns: s.log.Len(),
		PendingFeedback:  s.log.Pending(),
		EventCounts:      counts,
		Runtime:          s.runtimeStats(),
		Coord:            coordStats,
		Ingest:           s.ingestStats(snap),
	})
}

// runtimeStats rolls the metric catalog up into the /api/stats runtime
// section: the same counters and histograms /metrics exposes, read at
// response time, so the two views always agree.
func (s *Server) runtimeStats() *api.RuntimeStatsJSON {
	m := s.metrics
	uptime := time.Since(m.start).Seconds()
	requests := m.requests.Total()
	qps := 0.0
	if uptime > 0 {
		qps = float64(requests) / uptime
	}
	lat := m.latency.With("/api/query").Snapshot()
	hits := m.retrieval.SimHits.Value()
	lookups := m.retrieval.SimLookups.Value()
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(hits) / float64(lookups)
	}
	coReq := m.coalesceRequests.Value()
	coHits := m.coalesceHits.Value()
	coRate := 0.0
	if coReq > 0 {
		coRate = float64(coHits) / float64(coReq)
	}
	return &api.RuntimeStatsJSON{
		CoalesceRequests: coReq,
		CoalesceLeaders:  m.coalesceLeaders.Value(),
		CoalesceHits:     coHits,
		CoalesceHitRate:  coRate,
		Lanes:            s.lanes.lanes(),
		UptimeSeconds:    uptime,
		Requests:         requests,
		QPS:              qps,
		QueryP50MS:       lat.Quantile(0.50) * 1e3,
		QueryP95MS:       lat.Quantile(0.95) * 1e3,
		QueryP99MS:       lat.Quantile(0.99) * 1e3,
		SimCacheHitRate:  hitRate,
		Inflight:         int(m.inflight.Value()),
		Shed:             m.shed.Value(),
		Panics:           m.panics.Value(),
		SlowQueries:      m.slow.Value(),
		TruncatedQueries: m.retrieval.Truncated.Value(),
		ModelGeneration:  s.current.Load().gen,
		Retrains:         m.retrains.Value(),
		RetrainFailures:  m.retrainFailures.Value(),
		PersistFailures:  m.persistFailures.Value(),
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	snap := s.current.Load()
	names := make([]string, snap.model.NumConcepts())
	for i := range names {
		names[i] = snap.domain.EventName(videomodel.EventFromIndex(i))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"domain": snap.domain.Name,
		"events": names,
	})
}

func (s *Server) handleVideos(w http.ResponseWriter, r *http.Request) {
	snap := s.current.Load()
	m := snap.model
	out := make([]VideoJSON, m.NumVideos())
	for vi := range out {
		lo, hi := m.VideoStates(vi)
		counts := make(map[string]int)
		for ci := 0; ci < m.NumConcepts(); ci++ {
			if n := int(m.B2.At(vi, ci)); n > 0 {
				counts[snap.domain.EventName(videomodel.EventFromIndex(ci))] = n
			}
		}
		out[vi] = VideoJSON{ID: int(m.VideoIDs[vi]), States: hi - lo, EventCounts: counts}
	}
	writeJSON(w, http.StatusOK, map[string][]VideoJSON{"videos": out})
}

// handleRankVideos ranks videos for an MATN pattern using the level-2
// matrices only (the Step-2 browsing signal).
func (s *Server) handleRankVideos(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	snap := s.current.Load()
	pattern, err := s.patterns.compile(req.Pattern, snap.domain)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	engine := snap.engine
	// Merge alternation branches by max score per video.
	best := make(map[int]float64)
	for _, q := range pattern.queries {
		ranks, err := engine.RankVideos(q)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		for _, vr := range ranks {
			if vr.Score > best[int(vr.VideoID)] {
				best[int(vr.VideoID)] = vr.Score
			}
		}
	}
	resp := RankResponse{}
	for id, score := range best {
		resp.Videos = append(resp.Videos, api.VideoRankJSON{Video: id, Score: score})
	}
	sort.Slice(resp.Videos, func(i, j int) bool {
		if resp.Videos[i].Score != resp.Videos[j].Score {
			return resp.Videos[i].Score > resp.Videos[j].Score
		}
		return resp.Videos[i].Video < resp.Videos[j].Video
	})
	topK := req.TopK
	if topK <= 0 {
		topK = retrieval.DefaultTopK
	}
	if len(resp.Videos) > topK {
		resp.Videos = resp.Videos[:topK]
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSimilarVideos ranks videos similar to the given one by event
// profile blended with learned A2 affinity.
func (s *Server) handleSimilarVideos(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad video id: %w", err))
		return
	}
	snap := s.current.Load()
	vi := -1
	for i, vid := range snap.model.VideoIDs {
		if int(vid) == id {
			vi = i
			break
		}
	}
	if vi < 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("video %d not found", id))
		return
	}
	ranks, err := snap.engine.SimilarVideos(vi, 0.7, retrieval.DefaultTopK)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := RankResponse{}
	for _, vr := range ranks {
		resp.Videos = append(resp.Videos, api.VideoRankJSON{Video: int(vr.VideoID), Score: vr.Score})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleState returns the detail of one level-1 state by global index.
// Indices at/past the main model's range address the live-ingest delta
// sub-model (the space query responses lift delta states into), so a
// state id returned by /api/query is always resolvable here.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad state id: %w", err))
		return
	}
	snap := s.current.Load()
	m, local := snap.model, id
	if d := snap.delta; d != nil && id >= d.Offset && id-d.Offset < d.Model.NumStates() {
		m, local = d.Model, id-d.Offset
	}
	if local < 0 || local >= m.NumStates() {
		total := snap.model.NumStates()
		if snap.delta != nil {
			total += snap.delta.Model.NumStates()
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("state %d out of range (%d states)", id, total))
		return
	}
	st := &m.States[local]
	names := make([]string, len(st.Events))
	for i, e := range st.Events {
		names[i] = snap.domain.EventName(e)
	}
	writeJSON(w, http.StatusOK, ShotResponse{
		State:   id,
		Shot:    int(st.Shot),
		Video:   int(m.VideoIDs[st.VideoIdx]),
		StartMS: st.StartMS,
		Events:  names,
		Pi:      m.Pi1[local],
		B1:      append([]float64(nil), m.B1.Row(local)...),
	})
}

// handleParse validates and renders an MATN query without executing it.
func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	snap := s.current.Load()
	network, err := matn.ParseDomain(req.Pattern, snap.domain)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	queries, err := network.Compile()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp := ParseResponse{
		Pattern: req.Pattern,
		Network: network.String(),
		States:  network.States,
		Arcs:    len(network.Arcs),
	}
	for _, q := range queries {
		var parts []string
		for _, step := range q.Steps {
			var names []string
			for _, e := range step.Events {
				names = append(names, snap.domain.EventName(e))
			}
			for _, e := range step.Not {
				names = append(names, "!"+snap.domain.EventName(e))
			}
			parts = append(parts, strings.Join(names, "&"))
		}
		resp.Expanded = append(resp.Expanded, strings.Join(parts, " -> "))
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryOutcome is the result of one /api/query execution, shaped so a
// coalesced waiter can render its response without re-running anything:
// the snapshot the leader executed on (waiters must render event names
// and Explain from the leader's generation, not whatever is published
// when they wake), the derived engine for Explain, and the merged
// ranking with its cost accounting.
type queryOutcome struct {
	snap    *snapshot
	engine  *retrieval.Engine
	matches []retrieval.Match
	cost    retrieval.Cost
	// fresh is the delta sub-model's video count at execution time: the
	// response's fresh_videos stamp.
	fresh int
}

// executeQuery runs one query through the coalescer (or directly when
// coalescing is off — a nil group passes through). The key pins the
// model generation of the snapshot loaded HERE: the leader executes on
// exactly this snapshot, so two requests straddling a retrain publish
// never share a result one of them could prove stale.
func (s *Server) executeQuery(ctx context.Context, req QueryRequest, canonical string,
	queries []retrieval.Query, scope *retrieval.Scope, opts retrieval.Options,
	budget time.Duration) (*queryOutcome, error) {
	snap := s.current.Load()
	key := coalesce.QueryKey(snap.gen, snap.delta.Generation(), canonical, opts, scope, int64(budget))
	out, _, err := s.coalescer.Do(ctx, key, func(execCtx context.Context) (*queryOutcome, error) {
		return s.runQuery(execCtx, req, snap, queries, scope, opts, budget)
	})
	return out, err
}

// runQuery is the leader body of one query execution: lane admission,
// deadline start, retrieval over every compiled pattern, merge, and
// slow-query accounting. ctx is the coalescer's execution context — it
// stays live until every participant has gone, so one impatient waiter
// never cancels a retrieval others still want.
func (s *Server) runQuery(ctx context.Context, req QueryRequest, snap *snapshot,
	queries []retrieval.Query, scope *retrieval.Scope, opts retrieval.Options,
	budget time.Duration) (*queryOutcome, error) {
	// With the slow-query log enabled, attach a per-request trace so a
	// logged entry can say where its time went (order/search/rank).
	var qtrace *obs.Trace
	var qstart time.Time
	if s.slowLog.Enabled() {
		qtrace = obs.NewTrace()
		opts.Trace = qtrace
		qstart = time.Now()
	}
	// Per-request tuning is a view sharing the snapshot engine's caches.
	engine := snap.engine.WithOptions(opts)
	var search retrieval.Retriever = engine
	if s.coordinator != nil {
		// Coordinator mode: retrieval scatters over remote shard servers.
		// Observer options (Metrics, Trace) stay local — the coordinator
		// strips them from the wire request and records hmmm_coord_*
		// instead; the local engine above still serves Explain and the
		// admission estimate.
		search = s.coordinator.WithOptions(opts)
	}

	// Two-lane admission. Only this leader consumes a lane slot — every
	// coalesced waiter rides it — and the execution deadline starts
	// strictly AFTER admission, so time spent in the heavy queue never
	// burns the budget the search was promised.
	if s.lanes != nil {
		est := 0
		for _, q := range queries {
			q.Scope = scope
			est += engine.EstimateCost(q)
		}
		release, err := s.lanes.admit(ctx, est, budget)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	// An MATN may compile to several linear patterns (alternation,
	// optional steps), and a live delta adds one more list per pattern;
	// the gather merges those lists, deduplicated by state sequence.
	gather := retrieval.Gather{TopK: opts.TopK}
	if err := gather.Search(ctx, search, queries, scope, 0); err != nil {
		return nil, err
	}
	// Live-ingest delta: the same patterns also search the delta
	// sub-model, one more (small) child of the gather at its offset; a
	// spent deadline skips it exactly like a later alternation branch.
	if snap.delta != nil && !gather.Truncated() {
		if err := gather.Search(ctx, snap.delta.Engine.WithOptions(opts), queries, scope, snap.delta.Offset); err != nil {
			return nil, err
		}
	}
	res := gather.Done(ctx)
	if qtrace != nil {
		s.recordSlowQuery(req, qtrace, time.Since(qstart), len(res.Matches), len(queries), res.Cost, opts)
	}
	return &queryOutcome{snap: snap, engine: engine, matches: res.Matches, cost: res.Cost, fresh: snap.delta.Len()}, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	pattern, err := s.patterns.compile(req.Pattern, s.current.Load().domain)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	queries := pattern.queries

	scope := requestScope(req)
	if scope != nil {
		probe := queries[0]
		probe.Scope = scope
		if err := probe.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	// The effective deadline budget is resolved here but started inside
	// runQuery, after admission. It participates in the coalesce key so
	// every rider shares the leader's truncation behavior.
	budget := s.effectiveQueryTimeout(req.TimeoutMS)
	out, err := s.executeQuery(r.Context(), req, pattern.canonical, queries, scope, s.queryOptions(req), budget)
	if err != nil {
		var shed *shedError
		switch {
		case errors.As(err, &shed):
			s.metrics.shed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, context.Canceled):
			// This request's own client went away while waiting on a
			// coalesced execution or in an admission queue; nobody is
			// listening for the body.
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	var explain func(retrieval.Match) []api.StepExplanationJSON
	if req.Explain {
		explain = explainer(out, queries)
	}
	writeQueryResponse(w, req.Pattern, len(queries), out, explain)
}

// requestScope is a query's time/video scope, nil when it sets none.
func requestScope(req QueryRequest) *retrieval.Scope {
	if req.ScopeVideo == 0 && req.ScopeFromMS == 0 && req.ScopeToMS == 0 {
		return nil
	}
	return &retrieval.Scope{
		Video:  videomodel.VideoID(req.ScopeVideo),
		FromMS: req.ScopeFromMS,
		ToMS:   req.ScopeToMS,
	}
}

// queryOptions is the server's retrieval options tuned by one request.
func (s *Server) queryOptions(req QueryRequest) retrieval.Options {
	opts := s.opts
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

// explainer returns the per-match explanation builder of an explain
// request: each match's Eqs. 12-13 factor decomposition against the
// first compiled pattern of its length, nil when none explains it.
func explainer(out *queryOutcome, queries []retrieval.Query) func(retrieval.Match) []api.StepExplanationJSON {
	snap := out.snap
	return func(match retrieval.Match) []api.StepExplanationJSON {
		// A delta match (states at/past the main model's range) is
		// explained by the delta engine in its local state space; the
		// factors are the delta model's own, which is what scored it.
		exEngine := out.engine
		if d := snap.delta; d != nil && len(match.States) > 0 && match.States[0] >= d.Offset {
			exEngine = d.Engine
			local := make([]int, len(match.States))
			for i, st := range match.States {
				local[i] = st - d.Offset
			}
			match.States = local
		}
		// Alternation branches share factor structure.
		for _, q := range queries {
			if q.Len() != len(match.States) {
				continue
			}
			exps, err := exEngine.Explain(match, q)
			if err != nil {
				continue
			}
			steps := make([]api.StepExplanationJSON, len(exps))
			for i, ex := range exps {
				ej := api.StepExplanationJSON{
					Pi: ex.Pi, Transition: ex.Transition,
					CrossVideo: ex.CrossVideo, Sim: ex.Sim, Weight: ex.Weight,
				}
				for _, fc := range ex.Features {
					ej.Features = append(ej.Features, api.FeatureContributionJSON{
						Feature: features.Names[fc.Feature],
						Event:   snap.domain.EventName(fc.Event),
						Term:    fc.Term,
					})
				}
				steps[i] = ej
			}
			return steps
		}
		return nil
	}
}

// handleFederatedQuery fans one MATN pattern over the configured
// federation of per-domain archives and returns the merged cross-domain
// ranking (see internal/fed for the skip and normalization semantics).
func (s *Server) handleFederatedQuery(w http.ResponseWriter, r *http.Request) {
	if s.federation == nil {
		writeError(w, http.StatusNotFound, errors.New("federation not configured (start hmmmd with -domains)"))
		return
	}
	var req api.FederatedQueryRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	resp, err := s.federation.Query(ctx, fed.Request{
		Pattern: req.Pattern,
		Members: req.Domains,
		TopK:    req.TopK,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out := api.FederatedQueryResponse{
		Pattern:    req.Pattern,
		Normalized: resp.Normalized,
		Cost:       costJSON(resp.Cost),
	}
	for _, mr := range resp.Members {
		out.Members = append(out.Members, api.FederatedMemberJSON{
			Name: mr.Name, Domain: mr.Domain,
			Skipped: mr.Skipped, Reason: mr.Reason,
			Matches: mr.Matches, MaxScore: mr.MaxScore,
			Cost: costJSON(mr.Cost),
		})
	}
	for i, m := range resp.Matches {
		fm := api.FederatedMatchJSON{
			Rank: i + 1, Member: m.Member, Domain: m.Domain,
			Score: m.Score, States: m.States,
		}
		for j, shot := range m.Shots {
			fm.Shots = append(fm.Shots, int(shot))
			fm.Videos = append(fm.Videos, int(m.Videos[j]))
		}
		out.Matches = append(out.Matches, fm)
	}
	writeJSON(w, http.StatusOK, out)
}

// costJSON renders a retrieval cost for the wire.
func costJSON(c retrieval.Cost) api.CostJSON {
	return api.CostJSON{
		SimEvals: c.SimEvals, EdgeEvals: c.EdgeEvals,
		VideosSeen: c.VideosSeen, Truncated: c.Truncated,
		DegradedShards: c.DegradedShards,
	}
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req FeedbackRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	// Validate states against the current snapshot; the log itself is
	// internally synchronized, so no server-level lock is needed to
	// record the mark.
	if err := s.log.MarkPositive(s.current.Load().model, req.States); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.feedback.Inc()
	retrained := false
	if s.trainer.Threshold > 0 && s.trainer.Due(s.log) {
		var err error
		retrained, err = s.maybeRetrain()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	if !retrained {
		// retrain already persisted the log; otherwise persist the new mark.
		s.retrainMu.Lock()
		err := s.persistLog()
		s.retrainMu.Unlock()
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("persisting feedback log: %w", err))
			return
		}
	}
	writeJSON(w, http.StatusOK, FeedbackResponse{Pending: s.log.Pending(), Retrained: retrained})
}

// maybeRetrain retrains if the pending count still meets the threshold
// once retrainMu is held (a concurrent feedback may have triggered the
// retrain first), reporting whether a retrain ran.
func (s *Server) maybeRetrain() (bool, error) {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	if !s.trainer.Due(s.log) {
		return false, nil
	}
	if err := s.retrainLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// retrainLocked performs one copy-on-write retrain cycle with retrainMu
// held: train a clone of the published model on the accumulated
// feedback, build a fresh engine over it, persist the log, and only
// then publish the new snapshot atomically. Persist-before-publish
// keeps the error response consistent with observable state: a failed
// persist leaves the old snapshot serving and the pending counter
// restored, so the caller's 500 means "nothing changed", never "the
// model advanced but its feedback evaporated on disk". Queries proceed
// on the old snapshot throughout and see the new one only after the
// swap.
func (s *Server) retrainLocked() error {
	snap := s.current.Load()
	next, err := s.trainer.Retrain(snap.model, s.log)
	if err != nil {
		return err
	}
	// Rebuild the serving structures off-lock from the query path's
	// perspective: engine caches are derived from the retrained clone
	// while the old snapshot keeps serving; only the final Store below
	// publishes.
	fresh, err := s.newSnapshot(next, snap.gen+1)
	if err != nil {
		// Post-training failures also fail the cycle; the trainer only
		// counted its own (successful) training pass.
		s.metrics.retrainFailures.Inc()
		return fmt.Errorf("rebuilding serving snapshot: %w", err)
	}
	taken := s.log.TakePending()
	if err := s.persistLog(); err != nil {
		s.metrics.retrainFailures.Inc()
		// Feedback marked concurrently during the persist attempt added to
		// the zeroed counter; AddPending folds the taken count back in.
		s.log.AddPending(taken)
		return fmt.Errorf("persisting feedback log: %w", err)
	}
	// A retrain adjusts matrices without changing the state set, so the
	// live-ingest delta (whose offset is the state count) carries
	// forward unchanged.
	fresh.delta = snap.delta
	s.current.Store(fresh)
	return nil
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	s.retrainMu.Lock()
	err := s.retrainLocked()
	s.retrainMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, FeedbackResponse{Pending: s.log.Pending(), Retrained: true})
}

// effectiveQueryTimeout resolves one query's deadline from the server
// ceiling and the request's timeout_ms: the request may only tighten
// the configured ceiling, never widen it. 0 means no deadline.
func (s *Server) effectiveQueryTimeout(reqMS int) time.Duration {
	d := s.queryTimeout
	if reqMS > 0 {
		if req := time.Duration(reqMS) * time.Millisecond; d == 0 || req < d {
			d = req
		}
	}
	return d
}

// BeginDrain flips readiness off: /api/health starts answering 503
// "draining" so load balancers stop routing new traffic, while
// in-flight and straggler requests are still served. It does not block.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// PersistNow flushes the feedback log to disk (a no-op without a
// configured log path). Shutdown calls it after the drain so marks
// accepted up to the last request survive the restart.
func (s *Server) PersistNow() error {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	return s.persistLog()
}

// Shutdown gracefully stops the given http.Server serving this Server's
// handler: readiness goes false, in-flight requests get up to grace to
// finish, a background compaction started by one of them gets the rest
// of the grace to finish — so a caller that removes the live directory
// afterwards does not pull it out from under the snapshot write — and
// then the feedback log is persisted one final time. The drain error
// (deadline exceeded with requests or the compaction still running) and
// the persist error both matter; the persist always runs.
func (s *Server) Shutdown(hs *http.Server, grace time.Duration) error {
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drainErr := hs.Shutdown(ctx)
	if err := s.waitCompaction(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	persistErr := s.PersistNow()
	if persistErr != nil {
		return fmt.Errorf("final feedback-log persist: %w", persistErr)
	}
	return drainErr
}

// maxKeptBuf is the largest buffer returned to jsonBufs, and the
// longest /api/query body decoded from one. API requests and responses
// are a few KiB; a buffer grown past this by one large response is
// dropped instead of staying pooled.
const maxKeptBuf = 64 << 10

// jsonBuf is a pooled JSON buffer with an encoder bound to it: response
// encode, the /api/query request body and decodeJSON's scratch chunk
// borrow it from jsonBufs instead of allocating.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	jb := new(jsonBuf)
	jb.enc = json.NewEncoder(&jb.Buffer)
	return jb
}}

func getJSONBuf() *jsonBuf { return jsonBufs.Get().(*jsonBuf) }

// release returns the buffer to jsonBufs unless it grew past maxKeptBuf.
func (jb *jsonBuf) release() {
	if jb.Cap() <= maxKeptBuf {
		jb.Reset()
		jsonBufs.Put(jb)
	}
}

// scratch returns n bytes of the buffer's storage for use as a read
// chunk; the buffer itself stays empty.
func (jb *jsonBuf) scratch(n int) []byte {
	jb.Grow(n)
	return jb.AvailableBuffer()[:n]
}

// writeJSON writes v as the response body, in json.Encoder's framing
// (one value and a trailing newline). An unencodable v leaves the body
// empty, as Encoder.Encode would.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := getJSONBuf()
	defer jb.release()
	err := jb.enc.Encode(v)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if err == nil {
		_, _ = w.Write(jb.Bytes())
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
