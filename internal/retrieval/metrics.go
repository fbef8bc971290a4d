package retrieval

import (
	"time"

	"github.com/videodb/hmmm/internal/obs"
)

// Metrics is the engine's observability bundle: per-query counters and
// stage-latency histograms registered against an obs.Registry. A nil
// *Metrics (the default) records nothing, and recording happens once
// per retrieval from the already-accumulated Cost counters — the lattice
// hot loop itself touches no atomics, so instrumentation overhead is a
// handful of atomic adds and three clock reads per query.
type Metrics struct {
	Queries      *obs.Counter
	QuerySeconds *obs.Histogram
	// SimLookups counts every Eq. 14 evaluation; SimHits the ones served
	// from the precomputed similarity table, SimMisses the ones recomputed
	// from the raw matrix rows (NoSimCache). hits + misses == lookups is a
	// tested invariant.
	SimLookups *obs.Counter
	SimHits    *obs.Counter
	SimMisses  *obs.Counter
	// Edges counts state-transition edge relaxations; Videos the level-2
	// states expanded; Truncated the retrievals cut short by context
	// expiry (deadline or client disconnect).
	Edges     *obs.Counter
	Videos    *obs.Counter
	Truncated *obs.Counter
	// StageSeconds breaks query latency down by pipeline stage: "order"
	// (Step-2 video ordering), "search" (per-video lattice traversal),
	// "rank" (final sort + truncate).
	StageSeconds *obs.HistogramVec
	// Arena free-list traffic: ArenaReuse counts checkouts served from
	// the bounded pool, ArenaAlloc checkouts that had to allocate fresh
	// scratch (pool empty — more overlapping searches than the cap), and
	// ArenaDrop releases discarded because the pool was already full.
	// ArenaInUse is the live checked-out count. The pool holds two arenas
	// per CPU (floor 4), so a sustained non-zero alloc/drop rate means
	// more searches overlap than the CPUs can run: cap the concurrency in
	// front of the engine (the server's MaxInflight or fast lane).
	ArenaReuse *obs.Counter
	ArenaAlloc *obs.Counter
	ArenaDrop  *obs.Counter
	ArenaInUse *obs.Gauge
}

// NewMetrics registers the retrieval metric catalog on the registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries: reg.Counter("hmmm_retrieval_queries_total",
			"Retrievals executed (one per compiled linear pattern)."),
		QuerySeconds: reg.Histogram("hmmm_retrieval_query_seconds",
			"End-to-end retrieval latency in seconds.", nil),
		SimLookups: reg.Counter("hmmm_retrieval_sim_lookups_total",
			"Eq. 14 similarity evaluations."),
		SimHits: reg.Counter("hmmm_retrieval_sim_cache_hits_total",
			"Similarity evaluations served from the precomputed table."),
		SimMisses: reg.Counter("hmmm_retrieval_sim_cache_misses_total",
			"Similarity evaluations recomputed from raw matrix rows."),
		Edges: reg.Counter("hmmm_retrieval_edges_total",
			"State-transition edges relaxed during lattice traversal."),
		Videos: reg.Counter("hmmm_retrieval_videos_seen_total",
			"Level-2 video states expanded."),
		Truncated: reg.Counter("hmmm_retrieval_truncated_total",
			"Retrievals truncated by deadline or client disconnect."),
		StageSeconds: reg.HistogramVec("hmmm_retrieval_stage_seconds",
			"Retrieval latency by pipeline stage.", nil, "stage"),
		ArenaReuse: reg.Counter("hmmm_retrieval_arena_reuse_total",
			"Search-arena checkouts served from the bounded free list."),
		ArenaAlloc: reg.Counter("hmmm_retrieval_arena_alloc_total",
			"Search-arena checkouts that allocated fresh scratch (pool empty)."),
		ArenaDrop: reg.Counter("hmmm_retrieval_arena_drop_total",
			"Search-arena releases dropped because the free list was full."),
		ArenaInUse: reg.Gauge("hmmm_retrieval_arena_in_use",
			"Search arenas currently checked out."),
	}
}

// arenaGet records one arena checkout. Safe on a nil receiver (the
// uninstrumented default) — getArena sits outside the per-edge hot loop,
// so the cost is one branch plus at most one atomic per search.
func (m *Metrics) arenaGet(reused bool) {
	if m == nil {
		return
	}
	if reused {
		m.ArenaReuse.Inc()
	} else {
		m.ArenaAlloc.Inc()
	}
	m.ArenaInUse.Add(1)
}

// arenaPut records one arena release.
func (m *Metrics) arenaPut(dropped bool) {
	if m == nil {
		return
	}
	if dropped {
		m.ArenaDrop.Inc()
	}
	m.ArenaInUse.Add(-1)
}

// observe records one finished retrieval. cached reports whether the
// engine's similarity table served the query's Eq. 14 evaluations.
func (m *Metrics) observe(c Cost, cached bool, total, order, search, rank time.Duration) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	m.QuerySeconds.ObserveDuration(total)
	m.SimLookups.Add(uint64(c.SimEvals))
	if cached {
		m.SimHits.Add(uint64(c.SimEvals))
	} else {
		m.SimMisses.Add(uint64(c.SimEvals))
	}
	m.Edges.Add(uint64(c.EdgeEvals))
	m.Videos.Add(uint64(c.VideosSeen))
	if c.Truncated {
		m.Truncated.Inc()
	}
	m.StageSeconds.With("order").ObserveDuration(order)
	m.StageSeconds.With("search").ObserveDuration(search)
	m.StageSeconds.With("rank").ObserveDuration(rank)
}
