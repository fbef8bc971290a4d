package server

import (
	"net/http"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
)

// serverMetrics is the server's metric catalog, registered once per
// Server against its obs.Registry. Every consumer of an operational
// number — /api/health, /api/stats, /metrics, the admission gate —
// reads the same underlying metric, so the three views can never
// disagree with each other.
type serverMetrics struct {
	reg   *obs.Registry
	start time.Time

	// HTTP serving path.
	requests *obs.CounterVec   // {route, code-class}
	latency  *obs.HistogramVec // {route}
	inflight *obs.Gauge        // admitted requests currently being served
	shed     *obs.Counter      // 503s from admission control
	panics   *obs.Counter      // handler panics converted to 500s

	// Query path.
	slow      *obs.Counter // queries at/over the slow-query threshold
	retrieval *retrieval.Metrics

	// Request coalescing on /api/query: every request is exactly one of
	// leader (ran the retrieval) or hit (rode an identical in-flight
	// one), so leaders + hits == requests.
	coalesceRequests *obs.Counter
	coalesceLeaders  *obs.Counter
	coalesceHits     *obs.Counter

	// Two-lane admission ({lane} is "fast" or "heavy"); laneQueued is
	// the heavy lane's bounded-queue depth.
	laneInflight *obs.GaugeVec
	laneAdmitted *obs.CounterVec
	laneShed     *obs.CounterVec
	laneQueued   *obs.Gauge

	// Feedback and retraining.
	feedback        *obs.Counter // positive marks accepted
	persistFailures *obs.Counter // feedback-log persist errors
	logRecoveries   *obs.Counter // boots served from a recovery candidate
	logCorrupt      *obs.Counter // corrupt candidates skipped during recovery
	retrains        *obs.Counter
	retrainFailures *obs.Counter
	retrainSeconds  *obs.Histogram

	// Live ingest and compaction (see server/live.go). Always registered
	// — they simply stay zero when live ingest is off — so dashboards
	// need no conditional scrape config.
	ingestAccepted        *obs.Counter   // videos accepted into the delta
	ingestRejected        *obs.Counter   // ingest requests rejected (bad input, no annotations)
	ingestPersistFailures *obs.Counter   // journal persist errors (accept refused or truncation kept)
	ingestReplayed        *obs.Counter   // journal records replayed into the delta at boot
	ingestReplaySkipped   *obs.Counter   // journal records skipped at boot (already compacted)
	ingestLogRecoveries   *obs.Counter   // boots that loaded the journal from a recovery candidate
	ingestLogCorrupt      *obs.Counter   // corrupt journal candidates skipped during recovery
	ingestSeconds         *obs.Histogram // accept latency (segment + delta build + journal fsync)
	compactions           *obs.Counter   // deltas folded into full rebuilds
	compactFailures       *obs.Counter   // compaction attempts that failed (delta kept serving)
	compactSeconds        *obs.Histogram // compaction duration (union build + persist + publish)
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg:   reg,
		start: time.Now(),
		requests: reg.CounterVec("hmmm_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "code"),
		latency: reg.HistogramVec("hmmm_http_request_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		inflight: reg.Gauge("hmmm_http_inflight",
			"Requests currently inside the admission gate."),
		shed: reg.Counter("hmmm_http_shed_total",
			"Requests shed with 503 by admission control."),
		panics: reg.Counter("hmmm_http_panics_total",
			"Handler panics recovered into 500 responses."),
		slow: reg.Counter("hmmm_slow_queries_total",
			"Queries at or over the slow-query threshold."),
		retrieval: retrieval.NewMetrics(reg),
		coalesceRequests: reg.Counter("hmmm_coalesce_requests_total",
			"Query executions entering the request coalescer."),
		coalesceLeaders: reg.Counter("hmmm_coalesce_leaders_total",
			"Coalesced query executions that ran their own retrieval."),
		coalesceHits: reg.Counter("hmmm_coalesce_hits_total",
			"Query executions served by riding an identical in-flight retrieval."),
		laneInflight: reg.GaugeVec("hmmm_lane_inflight",
			"Queries holding an admission slot, by lane.", "lane"),
		laneAdmitted: reg.CounterVec("hmmm_lane_admitted_total",
			"Queries granted an admission slot, by lane.", "lane"),
		laneShed: reg.CounterVec("hmmm_lane_shed_total",
			"Queries shed with 503 by lane admission.", "lane"),
		laneQueued: reg.Gauge("hmmm_lane_heavy_queued",
			"Heavy queries waiting in the bounded admission queue."),
		feedback: reg.Counter("hmmm_feedback_total",
			"Positive feedback marks accepted."),
		persistFailures: reg.Counter("hmmm_feedback_persist_failures_total",
			"Feedback-log persist attempts that failed."),
		logRecoveries: reg.Counter("hmmm_feedback_log_recoveries_total",
			"Boots that loaded the feedback log from a recovery candidate."),
		logCorrupt: reg.Counter("hmmm_feedback_log_corrupt_candidates_total",
			"Corrupt feedback-log candidates skipped during recovery."),
		retrains: reg.Counter("hmmm_retrain_total",
			"Successful offline retraining passes over the feedback log."),
		retrainFailures: reg.Counter("hmmm_retrain_failures_total",
			"Retrain cycles that failed at any stage (model unchanged)."),
		retrainSeconds: reg.Histogram("hmmm_retrain_seconds",
			"Offline retraining duration in seconds.", nil),
		ingestAccepted: reg.Counter("hmmm_ingest_accepted_total",
			"Videos accepted by live ingest into the delta sub-model."),
		ingestRejected: reg.Counter("hmmm_ingest_rejected_total",
			"Live-ingest requests rejected (bad input or no annotated shots)."),
		ingestPersistFailures: reg.Counter("hmmm_ingest_persist_failures_total",
			"Ingest-journal persist attempts that failed."),
		ingestReplayed: reg.Counter("hmmm_ingest_replayed_total",
			"Journal records replayed into the delta sub-model at boot."),
		ingestReplaySkipped: reg.Counter("hmmm_ingest_replay_skipped_total",
			"Journal records skipped at boot because the model already held them."),
		ingestLogRecoveries: reg.Counter("hmmm_ingest_log_recoveries_total",
			"Boots that loaded the ingest journal from a recovery candidate."),
		ingestLogCorrupt: reg.Counter("hmmm_ingest_log_corrupt_candidates_total",
			"Corrupt ingest-journal candidates skipped during recovery."),
		ingestSeconds: reg.Histogram("hmmm_ingest_seconds",
			"Live-ingest accept latency in seconds (segmentation through durable publish).", nil),
		compactions: reg.Counter("hmmm_compact_total",
			"Delta sub-models folded into full model rebuilds."),
		compactFailures: reg.Counter("hmmm_compact_failures_total",
			"Compaction attempts that failed at any stage (delta kept serving)."),
		compactSeconds: reg.Histogram("hmmm_compact_seconds",
			"Compaction duration in seconds (union rebuild through journal truncation).", nil),
	}
}

// routeLabel normalizes a request path to its route pattern so metric
// label cardinality stays bounded no matter what clients send. Paths
// carrying IDs collapse to their {id} pattern; anything unrecognized is
// "other".
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/api/health", "/api/stats", "/api/events", "/api/videos",
		"/api/parse", "/api/query", "/api/query/federated", "/api/ingest",
		"/api/feedback", "/api/retrain", "/api/videos/rank", "/metrics":
		return p
	}
	if strings.HasPrefix(p, "/api/states/") {
		return "/api/states/{id}"
	}
	if strings.HasPrefix(p, "/api/videos/") && strings.HasSuffix(p, "/similar") {
		return "/api/videos/{id}/similar"
	}
	return "other"
}

// statusWriter captures the response status code for the request
// metrics. Unwrap keeps http.ResponseController working through it. It
// lives in its request value, which rq points back to.
type statusWriter struct {
	http.ResponseWriter
	status int
	rq     *request
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// codeClass buckets a status code into its class label ("2xx" ... "5xx")
// so the requests counter stays low-cardinality.
func codeClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// withObs is the outermost middleware: it observes every response the
// stack produces, including recovery's 500s and admission's shed 503s,
// attributing each to its normalized route and status class with its
// wall-clock latency. It takes the request's pooled value, whose
// statusWriter the handlers write through, and releases it once the
// response is written.
func (s *Server) withObs(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rq := requests.Get().(*request)
		sw := &rq.sw
		sw.ResponseWriter = w
		start := time.Now()
		h.ServeHTTP(sw, r)
		if sw.status == 0 {
			// Handler wrote nothing; net/http sends 200 on return.
			sw.status = http.StatusOK
		}
		route := routeLabel(r)
		s.metrics.requests.With(route, codeClass(sw.status)).Inc()
		s.metrics.latency.With(route).ObserveDuration(time.Since(start))
		rq.release()
	})
}

// slowQueryEntry is one JSON line of the slow-query log: enough context
// to reproduce the query and see where its time went without turning
// tracing on globally.
type slowQueryEntry struct {
	Time       string             `json:"time"`
	Pattern    string             `json:"pattern"`
	DurationMS float64            `json:"duration_ms"`
	StagesMS   map[string]float64 `json:"stages_ms,omitempty"`
	Matches    int                `json:"matches"`
	Expanded   int                `json:"expanded_patterns"`
	Truncated  bool               `json:"truncated,omitempty"`
	SimEvals   int                `json:"sim_evals"`
	EdgeEvals  int                `json:"edge_evals"`
	VideosSeen int                `json:"videos_seen"`
	TopK       int                `json:"top_k"`
	Beam       int                `json:"beam"`
}

// recordSlowQuery offers one finished query to the slow-query log and
// counts it when the log takes it (duration at/over the threshold).
func (s *Server) recordSlowQuery(req QueryRequest, tr *obs.Trace, dur time.Duration,
	matches, expanded int, cost retrieval.Cost, opts retrieval.Options) {
	entry := slowQueryEntry{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Pattern:    req.Pattern,
		DurationMS: float64(dur) / float64(time.Millisecond),
		StagesMS:   stagesMS(tr),
		Matches:    matches,
		Expanded:   expanded,
		Truncated:  cost.Truncated,
		SimEvals:   cost.SimEvals,
		EdgeEvals:  cost.EdgeEvals,
		VideosSeen: cost.VideosSeen,
		TopK:       opts.TopK,
		Beam:       opts.Beam,
	}
	ok, err := s.slowLog.Record(dur, entry)
	if err != nil {
		s.logf("server: slow-query log write failed: %v", err)
	}
	if ok {
		s.metrics.slow.Inc()
	}
}

// stagesMS converts a trace's per-stage totals to milliseconds for the
// slow-query entry.
func stagesMS(tr *obs.Trace) map[string]float64 {
	totals := tr.Totals()
	if len(totals) == 0 {
		return nil
	}
	out := make(map[string]float64, len(totals))
	for name, d := range totals {
		out[name] = float64(d) / float64(time.Millisecond)
	}
	return out
}
