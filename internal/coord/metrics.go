package coord

import "github.com/videodb/hmmm/internal/obs"

// Metrics holds the hmmm_coord_* instruments the coordinator records.
// All fields are registered by NewMetrics; a nil *Metrics disables
// recording.
type Metrics struct {
	// Queries counts coordinated retrievals.
	Queries *obs.Counter
	// ShardRequests counts individual shard attempts (retries and
	// hedges included).
	ShardRequests *obs.Counter
	// Retries counts the shard requests sent beyond each shard's first.
	Retries *obs.Counter
	// Hedges counts hedged (second, speculative) requests launched
	// after the p95-derived delay; HedgeWins counts hedges whose
	// response arrived first.
	Hedges    *obs.Counter
	HedgeWins *obs.Counter
	// Ejections counts endpoints removed from routing by passive
	// failure detection; Readmissions counts half-open probes that
	// brought one back.
	Ejections    *obs.Counter
	Readmissions *obs.Counter
	// Degraded counts queries answered with at least one shard missing
	// (the committed-partial path); DegradedShards counts the missing
	// shard slots across those queries.
	Degraded       *obs.Counter
	DegradedShards *obs.Counter
	// GenConflicts counts shard responses dropped for carrying a stale
	// model generation after the re-query budget.
	GenConflicts *obs.Counter
	// ShardSeconds observes per-attempt shard request latency.
	ShardSeconds *obs.Histogram
}

// NewMetrics registers the coordinator metrics on reg. Registration is
// idempotent; rebuilding a coordinator reuses the same instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries:        reg.Counter("hmmm_coord_queries_total", "coordinated scatter-gather retrievals"),
		ShardRequests:  reg.Counter("hmmm_coord_shard_requests_total", "remote shard attempts (retries and hedges included)"),
		Retries:        reg.Counter("hmmm_coord_retries_total", "shard attempts beyond the first (transient-error retries)"),
		Hedges:         reg.Counter("hmmm_coord_hedges_total", "speculative hedged requests launched after the p95 delay"),
		HedgeWins:      reg.Counter("hmmm_coord_hedge_wins_total", "hedged requests whose response won the race"),
		Ejections:      reg.Counter("hmmm_coord_ejections_total", "endpoints ejected by passive failure detection"),
		Readmissions:   reg.Counter("hmmm_coord_readmissions_total", "ejected endpoints readmitted by a half-open probe"),
		Degraded:       reg.Counter("hmmm_coord_degraded_total", "queries answered with at least one shard missing"),
		DegradedShards: reg.Counter("hmmm_coord_degraded_shards_total", "shard slots missing across degraded queries"),
		GenConflicts:   reg.Counter("hmmm_coord_gen_conflicts_total", "shard responses dropped for a stale model generation"),
		ShardSeconds:   reg.Histogram("hmmm_coord_shard_seconds", "per-attempt remote shard request latency", nil),
	}
}
