package main

// metricDef describes one reported metric. bound is the share of the
// parent's median an end-to-end metric may worsen by before the change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, so each is defined per workload (see
// README.md for the table):
//
//	throughput_per_s  samples attributed / profiles merged / profiles
//	                  ingested / queries answered, per second
//	op_ms_*           wall of one collect+write, one load+render, one
//	                  post-upload (cold) query, one dashboard query
//	output_kb         what the operation hands its user: the measurement
//	                  directory, the rendered views, the response body
//
// BENCHMARK.json carries the same list; bench_test.go keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"output_kb", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"alloc_mb", "MiB", "lower", 0.05},
}

// perLayer lists the traced pass's metrics. A workload reports 0 for a
// metric whose layer it does not reach: that is the bypass half of the
// exercise/bypass design, not a missing measurement. Names follow the
// module they measure.
var perLayer = []metricDef{
	// Where the traced wall went, by layer self time (all workloads).
	{"share.sim_pct", "%", "lower", 0},
	{"share.profiler_pct", "%", "lower", 0},
	{"share.profio_pct", "%", "lower", 0},
	{"share.analysis_pct", "%", "lower", 0},
	{"share.view_pct", "%", "lower", 0},
	{"share.server_pct", "%", "lower", 0},
	{"share.push_pct", "%", "lower", 0},
	{"share.nethttp_pct", "%", "lower", 0},
	{"trace.unattributed_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},

	// collect_dense.
	{"sim.access_ns", "ns", "lower", 0},
	{"profiler.sample_ns", "ns", "lower", 0},
	{"profiler.slowdown", "ratio", "lower", 0},
	{"profiler.alloc_track_ns", "ns", "lower", 0},
	{"profiler.mallocs_per_sample", "count", "lower", 0},
	{"profiler.samples_taken", "count", "higher", 0},
	{"profiler.samples_dropped", "count", "lower", 0},
	{"profiler.unknown_latency_share", "ratio", "lower", 0},
	{"heapmap.lookup_ns.n512", "ns", "lower", 0},
	{"heapmap.lookup_ns.n16384", "ns", "lower", 0},
	{"heapmap.lookup_cached_ns", "ns", "lower", 0},
	{"heapmap.insert_remove_ns.n512", "ns", "lower", 0},
	{"heapmap.insert_remove_ns.n16384", "ns", "lower", 0},
	{"cct.add_sample_ids_ns", "ns", "lower", 0},
	{"cct.intern_ns", "ns", "lower", 0},
	{"temporal.record_overhead_pct", "%", "lower", 0},
	{"profio.encode_mb_per_s", "MiB/s", "higher", 0},
	{"profio.bytes_per_sample", "B", "lower", 0},

	// merge_10k.
	{"profio.decode_profiles_per_s", "1/s", "higher", 0},
	{"profio.decode_mb_per_s", "MiB/s", "higher", 0},
	{"profio.decode_parallel_profiles_per_s", "1/s", "higher", 0},
	{"profio.validate_profiles_per_s", "1/s", "higher", 0},
	{"profio.decode_alloc_kb_per_profile", "KiB", "lower", 0},
	{"profio.writedir_files_per_s", "1/s", "higher", 0},
	{"cct.merge_nodes_per_s", "1/s", "higher", 0},
	{"cct.absorb_nodes_per_s", "1/s", "higher", 0},
	{"analysis.fold_profiles_per_s", "1/s", "higher", 0},
	{"analysis.load_w1_profiles_per_s", "1/s", "higher", 0},
	{"analysis.parallel_speedup", "ratio", "higher", 0},
	{"analysis.stage_sum_over_wall", "ratio", "higher", 0},
	{"analysis.stats_decode_ms", "ms", "lower", 0},
	{"analysis.stats_fold_ms", "ms", "lower", 0},
	{"analysis.stats_reduce_ms", "ms", "lower", 0},
	{"analysis.peak_resident_profiles", "count", "lower", 0},
	{"analysis.alloc_mb_per_kprofile", "MiB", "lower", 0},
	{"view.topdown_text_ms", "ms", "lower", 0},
	{"view.variables_text_ms", "ms", "lower", 0},

	// serve_live.
	{"server.upload_ms_p50", "ms", "lower", 0},
	{"server.upload_ms_p95", "ms", "lower", 0},
	{"server.upload_handler_ms", "ms", "lower", 0},
	{"server.cold_view_ms.n250", "ms", "lower", 0},
	{"server.cold_view_ms.n1000", "ms", "lower", 0},
	{"push.client_ms_per_file", "ms", "lower", 0},
	{"push.preflight_ms", "ms", "lower", 0},
	{"push.retries", "count", "lower", 0},

	// serve_dash.
	{"view.topdown_json_ms", "ms", "lower", 0},
	{"view.bottomup_json_ms", "ms", "lower", 0},
	{"view.diff_json_ms", "ms", "lower", 0},
	{"view.alloc_kb_per_render", "KiB", "lower", 0},
	{"temporal.clip_ms", "ms", "lower", 0},
	{"temporal.phases_ms", "ms", "lower", 0},
	{"server.handler_ms.topdown", "ms", "lower", 0},
	{"server.handler_ms.bottomup", "ms", "lower", 0},
	{"server.handler_ms.diff", "ms", "lower", 0},
	{"server.handler_ms.window", "ms", "lower", 0},
	{"server.handler_ms.phases", "ms", "lower", 0},
	{"server.handler_ms.stats", "ms", "lower", 0},
	{"server.http_overhead_ms", "ms", "lower", 0},
	{"server.request_ms_p99", "ms", "lower", 0},
	{"telemetry.metrics_scrape_ms", "ms", "lower", 0},

	// Both serve_* workloads, read from Server.Registry().
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.merges", "count", "lower", 0},
	{"server.shed_total", "count", "lower", 0},
}
