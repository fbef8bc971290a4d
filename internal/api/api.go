// Package api defines the JSON payload types of the HMMM retrieval HTTP
// API, shared by the server and the client.
package api

// QueryRequest asks for a temporal pattern retrieval.
type QueryRequest struct {
	// Pattern is an MATN query text, e.g. "goal -> free_kick".
	Pattern string `json:"pattern"`
	// TopK bounds results (0 = server default).
	TopK int `json:"top_k,omitempty"`
	// Beam widens per-video search (0 = default greedy).
	Beam int `json:"beam,omitempty"`
	// CrossVideo allows patterns spanning videos.
	CrossVideo bool `json:"cross_video,omitempty"`
	// SimilarShots admits unannotated candidate shots by feature
	// similarity.
	SimilarShots bool `json:"similar_shots,omitempty"`
	// Explain attaches per-step factor decompositions to each match.
	Explain bool `json:"explain,omitempty"`
	// ScopeVideo restricts the search to one video ID (0 = all).
	ScopeVideo int `json:"scope_video,omitempty"`
	// ScopeFromMS / ScopeToMS bound shot start times (0 = unbounded end).
	ScopeFromMS int `json:"scope_from_ms,omitempty"`
	ScopeToMS   int `json:"scope_to_ms,omitempty"`
	// TimeoutMS bounds this query's execution in milliseconds; the server
	// clamps it to its configured maximum. On expiry the response carries
	// the matches ranked so far with cost.truncated set. 0 means the
	// server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MatchJSON is one retrieved pattern.
type MatchJSON struct {
	Rank    int        `json:"rank"`
	Score   float64    `json:"score"`
	States  []int      `json:"states"`
	Shots   []int      `json:"shots"`
	Videos  []int      `json:"videos"`
	Events  [][]string `json:"events"`
	Weights []float64  `json:"weights"`
	// Explanation is present when the query asked for it: per-step
	// factor decompositions of the Eqs. 12-13 weights.
	Explanation []StepExplanationJSON `json:"explanation,omitempty"`
}

// StepExplanationJSON decomposes one step's edge weight.
type StepExplanationJSON struct {
	Pi         float64                   `json:"pi,omitempty"`
	Transition float64                   `json:"transition,omitempty"`
	CrossVideo bool                      `json:"cross_video,omitempty"`
	Sim        float64                   `json:"sim"`
	Weight     float64                   `json:"weight"`
	Features   []FeatureContributionJSON `json:"features,omitempty"`
}

// FeatureContributionJSON is one feature's share of a similarity score.
type FeatureContributionJSON struct {
	Feature string  `json:"feature"`
	Event   string  `json:"event"`
	Term    float64 `json:"term"`
}

// QueryResponse is the ranked retrieval result.
type QueryResponse struct {
	Pattern  string      `json:"pattern"`
	Expanded int         `json:"expanded_patterns"`
	Matches  []MatchJSON `json:"matches"`
	Cost     CostJSON    `json:"cost"`
	// FreshVideos counts videos accepted by live ingest that this query
	// was served over before any compaction folded them into the main
	// model (the delta sub-model's size at execution time). Absent when
	// live ingest is off or the delta is empty.
	FreshVideos int `json:"fresh_videos,omitempty"`
}

// FederatedQueryRequest asks for one MATN pattern to be executed across
// the server's federation of per-domain archives.
type FederatedQueryRequest struct {
	// Pattern is the MATN query text, parsed per member against that
	// member's own event vocabulary.
	Pattern string `json:"pattern"`
	// Domains optionally restricts the query to the named federation
	// members (member names are conventionally domain names); empty
	// means all members.
	Domains []string `json:"domains,omitempty"`
	// TopK bounds the merged ranking (0 = server default).
	TopK int `json:"top_k,omitempty"`
}

// FederatedMatchJSON is one merged cross-archive match. States are
// federation-global indices; Score is normalized to the owning member's
// best score when the response says so.
type FederatedMatchJSON struct {
	Rank   int     `json:"rank"`
	Member string  `json:"member"`
	Domain string  `json:"domain"`
	Score  float64 `json:"score"`
	States []int   `json:"states"`
	Shots  []int   `json:"shots"`
	Videos []int   `json:"videos"`
}

// FederatedMemberJSON reports one member's part in a federated query.
type FederatedMemberJSON struct {
	Name    string `json:"name"`
	Domain  string `json:"domain"`
	Skipped bool   `json:"skipped,omitempty"`
	// Reason says why the member was skipped — typically a queried
	// event outside its vocabulary.
	Reason   string   `json:"reason,omitempty"`
	Matches  int      `json:"matches"`
	MaxScore float64  `json:"max_score,omitempty"`
	Cost     CostJSON `json:"cost"`
}

// FederatedQueryResponse is the merged cross-archive ranking.
type FederatedQueryResponse struct {
	Pattern string                `json:"pattern"`
	Matches []FederatedMatchJSON  `json:"matches"`
	Members []FederatedMemberJSON `json:"members"`
	Cost    CostJSON              `json:"cost"`
	// Normalized reports that scores were rescaled per member (set when
	// two or more members executed the pattern).
	Normalized bool `json:"normalized,omitempty"`
}

// IngestRequest submits one video to live ingest. The raw material is
// synthesized server-side from the seed and per-shot event timeline
// (standing in for a camera feed or file decoder), then segmented and
// auto-annotated by the real pipeline — the classifier, not the request,
// decides the final annotations.
type IngestRequest struct {
	Name string `json:"name"`
	// Seed drives the synthetic renderer deterministically.
	Seed uint64 `json:"seed"`
	// Events is the shot timeline to render, one entry per shot; "none"
	// renders an ordinary-play shot.
	Events []string `json:"events"`
	// ShotMS is the rendered duration of each shot (0 = 3000).
	ShotMS int `json:"shot_ms,omitempty"`
}

// IngestResponse acknowledges a durably journaled, queryable video.
type IngestResponse struct {
	VideoID int `json:"video_id"`
	Shots   int `json:"shots"`
	// AutoAnnotated counts shots the classifier labeled with an event;
	// these become the video's delta model states.
	AutoAnnotated int `json:"auto_annotated"`
	// FreshVideos is the delta size after this accept.
	FreshVideos int `json:"fresh_videos"`
	// DeltaGeneration increments on every delta publish;
	// ModelGeneration is the main model generation served alongside.
	DeltaGeneration uint64 `json:"delta_generation"`
	ModelGeneration uint64 `json:"model_generation"`
}

// IngestStatsJSON is the /api/stats live-ingest section.
type IngestStatsJSON struct {
	Accepted        uint64 `json:"accepted"`
	Rejected        uint64 `json:"rejected"`
	PersistFailures uint64 `json:"persist_failures"`
	Replayed        uint64 `json:"replayed"`
	ReplaySkipped   uint64 `json:"replay_skipped"`
	FreshVideos     int    `json:"fresh_videos"`
	JournalRecords  int    `json:"journal_records"`
	DeltaGeneration uint64 `json:"delta_generation"`
	Compactions     uint64 `json:"compactions"`
	CompactFailures uint64 `json:"compact_failures"`
	// LastCompactUnixMS is the wall-clock time the last successful
	// compaction published, 0 before the first one.
	LastCompactUnixMS int64 `json:"last_compact_unix_ms,omitempty"`
	CompactAfter      int   `json:"compact_after,omitempty"`
}

// IngestHealthJSON is the /api/health live-ingest section.
type IngestHealthJSON struct {
	FreshVideos    int  `json:"fresh_videos"`
	JournalRecords int  `json:"journal_records"`
	Compacting     bool `json:"compacting"`
}

// CostJSON counts the work a retrieval performed.
type CostJSON struct {
	SimEvals   int `json:"sim_evals"`
	EdgeEvals  int `json:"edge_evals"`
	VideosSeen int `json:"videos_seen"`
	// Truncated reports that the query hit its deadline (or the client
	// disconnected) before the traversal finished: the matches are a
	// valid ranking of the part of the archive that was searched.
	Truncated bool `json:"truncated,omitempty"`
	// DegradedShards counts remote shards missing from this ranking
	// because they stayed unreachable past the coordinator's retry
	// budget; non-zero implies truncated. Absent on single-process
	// servers.
	DegradedShards int `json:"degraded_shards,omitempty"`
}

// FeedbackRequest marks one retrieved pattern positive.
type FeedbackRequest struct {
	States []int `json:"states"`
}

// FeedbackResponse reports the feedback bookkeeping.
type FeedbackResponse struct {
	Pending   int  `json:"pending"`
	Retrained bool `json:"retrained"`
}

// StatsResponse summarizes the model and the feedback log.
type StatsResponse struct {
	Videos           int            `json:"videos"`
	States           int            `json:"states"`
	Concepts         int            `json:"concepts"`
	Features         int            `json:"features"`
	DistinctPatterns int            `json:"distinct_patterns"`
	PendingFeedback  int            `json:"pending_feedback"`
	EventCounts      map[string]int `json:"event_counts"`
	// Runtime is the operational roll-up (request rates, latency
	// percentiles, cache hit rate) read from the server's metrics at
	// response time.
	Runtime *RuntimeStatsJSON `json:"runtime,omitempty"`
	// Coord is the distributed-serving roll-up when the server runs as
	// a coordinator over remote shard servers; absent otherwise.
	Coord *CoordStatsJSON `json:"coord,omitempty"`
	// Ingest is the live-ingest roll-up (delta size, journal, compaction
	// counters); absent when live ingest is off.
	Ingest *IngestStatsJSON `json:"ingest,omitempty"`
}

// CoordStatsJSON summarizes the coordinator's view of its remote
// shards: fan-out health, hedging/retry activity, and degradation.
type CoordStatsJSON struct {
	Shards          int                 `json:"shards"`
	Queries         uint64              `json:"queries"`
	Retries         uint64              `json:"retries"`
	Hedges          uint64              `json:"hedges"`
	HedgeWins       uint64              `json:"hedge_wins"`
	Ejections       uint64              `json:"ejections"`
	Readmissions    uint64              `json:"readmissions"`
	DegradedQueries uint64              `json:"degraded_queries"`
	GenConflicts    uint64              `json:"gen_conflicts"`
	Endpoints       []CoordEndpointJSON `json:"endpoints"`
}

// CoordEndpointJSON is one remote shard replica as the coordinator
// sees it.
type CoordEndpointJSON struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	// State is "healthy", "ejected", or "probing" (half-open).
	State string `json:"state"`
	// ConsecutiveErrors is the current transient-error streak.
	ConsecutiveErrors int    `json:"consecutive_errors,omitempty"`
	Generation        uint64 `json:"generation,omitempty"`
}

// RuntimeStatsJSON is the operational section of /api/stats: the same
// numbers /metrics exposes in Prometheus format, rolled up for humans
// and the CLI. Latency percentiles are estimated from the request
// histogram's fixed buckets (linear interpolation within a bucket).
type RuntimeStatsJSON struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Requests         uint64  `json:"requests"`
	QPS              float64 `json:"qps"`
	QueryP50MS       float64 `json:"query_p50_ms"`
	QueryP95MS       float64 `json:"query_p95_ms"`
	QueryP99MS       float64 `json:"query_p99_ms"`
	SimCacheHitRate  float64 `json:"sim_cache_hit_rate"`
	Inflight         int     `json:"inflight"`
	Shed             uint64  `json:"shed"`
	Panics           uint64  `json:"panics"`
	SlowQueries      uint64  `json:"slow_queries"`
	TruncatedQueries uint64  `json:"truncated_queries"`
	ModelGeneration  uint64  `json:"model_generation"`
	Retrains         uint64  `json:"retrains"`
	RetrainFailures  uint64  `json:"retrain_failures"`
	PersistFailures  uint64  `json:"persist_failures"`
	// Request coalescing on /api/query: every request either leads one
	// execution or rides an identical in-flight one (leaders + hits ==
	// requests). CoalesceHitRate is hits / requests — the fraction of
	// query traffic served without running its own retrieval.
	CoalesceRequests uint64  `json:"coalesce_requests"`
	CoalesceLeaders  uint64  `json:"coalesce_leaders"`
	CoalesceHits     uint64  `json:"coalesce_hits"`
	CoalesceHitRate  float64 `json:"coalesce_hit_rate"`
	// Lanes reports the two-lane admission controller when it is
	// enabled; absent otherwise.
	Lanes *LanesJSON `json:"lanes,omitempty"`
}

// LaneStatsJSON describes one admission lane of the two-lane query
// controller.
type LaneStatsJSON struct {
	// Inflight is the number of queries currently holding a slot in this
	// lane; Capacity is the lane's slot count.
	Inflight int `json:"inflight"`
	Capacity int `json:"capacity"`
	// Queued / QueueCap describe the bounded wait queue (heavy lane
	// only; the fast lane never queues more than a slot wait).
	Queued   int `json:"queued,omitempty"`
	QueueCap int `json:"queue_cap,omitempty"`
	// Admitted counts queries that obtained a slot; Shed counts queries
	// rejected with 503 (queue full, queue wait exceeding the deadline
	// allowance, or client gone while queued).
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

// LanesJSON is the two-lane admission controller's report: how query
// traffic splits between the cheap fast lane and the heavy queued lane.
type LanesJSON struct {
	// FastLaneCost is the estimated-cost threshold at or under which a
	// query takes the fast lane.
	FastLaneCost int           `json:"fast_lane_cost"`
	Fast         LaneStatsJSON `json:"fast"`
	Heavy        LaneStatsJSON `json:"heavy"`
}

// VideoJSON describes one archive video.
type VideoJSON struct {
	ID          int            `json:"id"`
	States      int            `json:"states"`
	EventCounts map[string]int `json:"event_counts"`
}

// VideoRankJSON is one entry of a video-level ranking.
type VideoRankJSON struct {
	Video int     `json:"video"`
	Score float64 `json:"score"`
}

// RankResponse is a video-level ranking for a pattern or a similarity
// probe.
type RankResponse struct {
	Videos []VideoRankJSON `json:"videos"`
}

// ShotResponse describes one model state (an annotated shot).
type ShotResponse struct {
	State   int       `json:"state"`
	Shot    int       `json:"shot"`
	Video   int       `json:"video"`
	StartMS int       `json:"start_ms"`
	Events  []string  `json:"events"`
	Pi      float64   `json:"pi"`
	B1      []float64 `json:"b1"`
}

// ParseResponse is the MATN debug rendering of a query text.
type ParseResponse struct {
	Pattern  string   `json:"pattern"`
	Network  string   `json:"network"`
	States   int      `json:"states"`
	Arcs     int      `json:"arcs"`
	Expanded []string `json:"expanded"`
}

// HealthResponse is the liveness + readiness report. Liveness is the 200
// itself; readiness is the Ready flag (false while draining), and the
// rest is the operational signal a balancer or operator keys off.
type HealthResponse struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Ready reports whether the server should receive new traffic.
	Ready bool `json:"ready"`
	// ModelGeneration counts published model snapshots (1 = the boot
	// model; each retrain publishes the next generation).
	ModelGeneration uint64 `json:"model_generation"`
	// PendingFeedback is the feedback count accumulated toward the next
	// retrain.
	PendingFeedback int `json:"pending_feedback"`
	// Inflight is the number of requests currently being served.
	Inflight int `json:"inflight"`
	// MaxInflight is the admission-control ceiling (0 = unlimited).
	MaxInflight int `json:"max_inflight,omitempty"`
	// Lanes reports the two-lane query admission controller when it is
	// enabled; absent otherwise.
	Lanes *LanesJSON `json:"lanes,omitempty"`
	// Ingest reports live-ingest health (delta size, journal length,
	// whether a compaction is running); absent when live ingest is off.
	Ingest *IngestHealthJSON `json:"ingest,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}
