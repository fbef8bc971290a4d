package main

// metricDef names one reported number. BENCHMARK.json at the repo root
// lists the same tables (a test keeps the two in step); bound is the
// relative worsening that counts as a regression, per-layer metrics
// have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the numbers a user of the system sees; every workload
// reports all of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"allocs_per_query", "count", "lower", 0.15},
	{"resident_mb", "MB", "lower", 0.05},
}

// reportedOnly are printed beside the end-to-end metrics of an untraced
// run but are not part of its result: no later change is gated on them.
// The 95th percentile is here because its run-to-run spread on a small
// shared host (up to 0.21 of its median over ten runs) is too close to
// the widest bound a metric may have (0.25).
var reportedOnly = []metricDef{
	{"query_p95_us", "us", "lower", 0},
}

// perLayer are the traced run's numbers. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"server.http_roundtrip_us", "us", "lower", 0},
	{"server.http_roundtrip_p95_us", "us", "lower", 0},
	{"server.shell_us", "us", "lower", 0},
	{"server.shell_share", "ratio", "lower", 0},
	{"api.decode_us", "us", "lower", 0},
	{"api.encode_us", "us", "lower", 0},
	{"matn.compile_us", "us", "lower", 0},
	{"coalesce.key_us", "us", "lower", 0},
	{"retrieval.estimate_us", "us", "lower", 0},
	{"retrieval.retrieve_us", "us", "lower", 0},
	{"retrieval.merge_us", "us", "lower", 0},
	{"retrieval.allocs_per_retrieve", "count", "lower", 0},
	{"retrieval.edge_evals_per_query", "count", "lower", 0},
	{"retrieval.sim_evals_per_query", "count", "lower", 0},
	{"retrieval.videos_seen_per_query", "count", "lower", 0},
	{"shard.split_ms", "ms", "lower", 0},
	{"shard.group_retrieve_us", "us", "lower", 0},
	{"coord.retrieve_us", "us", "lower", 0},
	{"coord.retries", "count", "lower", 0},
	{"coord.hedges_fired", "count", "lower", 0},
	{"coord.degraded_queries", "count", "lower", 0},
	{"rpc.roundtrip_us", "us", "lower", 0},
	{"rpc.service_us", "us", "lower", 0},
	{"rpc.wire_us", "us", "lower", 0},
	{"rpc.fleet_boot_ms", "ms", "lower", 0},
	{"hmmm.build_ms", "ms", "lower", 0},
	{"hmmm.model_mb", "MB", "lower", 0},
	{"retrieval.engine_build_ms", "ms", "lower", 0},
	{"retrieval.engine_mb", "MB", "lower", 0},
	{"server.new_ms", "ms", "lower", 0},
	{"store.save_compact_ms", "ms", "lower", 0},
	{"store.load_compact_ms", "ms", "lower", 0},
	{"store.load_dense_ms", "ms", "lower", 0},
	{"store.compact_bytes_per_shot", "B", "lower", 0},
	{"index.build_ms", "ms", "lower", 0},
	{"index.mb", "MB", "lower", 0},
	{"index.candidates_us", "us", "lower", 0},
	{"ingest.segment_ms", "ms", "lower", 0},
	{"ingest.accept_p50_ms", "ms", "lower", 0},
	{"live.delta_build_ms", "ms", "lower", 0},
	{"live.journal_persist_ms", "ms", "lower", 0},
	{"live.compact_rebuild_ms", "ms", "lower", 0},
	{"live.delta_retrieve_us", "us", "lower", 0},
	{"live.compactions", "count", "higher", 0},
	{"live.compact_failures", "count", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"coalesce.hits", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"loadgen.slice_spread_p50", "ratio", "lower", 0},
	{"loadgen.slice_spread_p95", "ratio", "lower", 0},
	{"loadgen.slice_spread_qps", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
