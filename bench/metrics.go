package bench

// Def names one metric as BENCHMARK.json lists it.
type Def struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// EndToEnd are the five metrics every workload reports untraced.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"heavy_op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
}

// PerLayer are the metrics a traced run reports. Every workload reports
// all of them; one that does not exercise a layer reports 0 for it.
// README.md says how each is taken and which end-to-end metric it should
// move.
var PerLayer = []Def{
	{Name: "network.converge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "network.events_per_op", Unit: "count", Better: "lower"},
	{Name: "network.reconverge_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ciscolog.emit_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ciscolog.parse_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "ciscolog.parse_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "stream.compactions_per_pass", Unit: "count", Better: "lower"},
	{Name: "stream.window_events", Unit: "count", Better: "lower"},
	{Name: "stream.pass_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "hbr.incremental_us_per_event", Unit: "us", Better: "lower"},
	{Name: "hbr.infer_full_count", Unit: "count", Better: "lower"},
	{Name: "hbr.infer_incremental_count", Unit: "count", Better: "lower"},
	{Name: "hbr.infer_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hbg.nodes", Unit: "count", Better: "lower"},
	{Name: "hbg.edges", Unit: "count", Better: "lower"},
	{Name: "hbg.rootcause_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hbg.checkpoint_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "hbg.checkpoint_bytes", Unit: "count", Better: "lower"},
	{Name: "snapshot.collect_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.infer_calls_per_verdict", Unit: "count", Better: "lower"},
	{Name: "snapshot.buildfibs_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "verify.cold_check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "verify.walks_per_verdict", Unit: "count", Better: "lower"},
	{Name: "verify.delta_check_static_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "verify.delta_check_link_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "verify.walks_per_update", Unit: "count", Better: "lower"},
	{Name: "verify.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "verify.batch_check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "repair.detect_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "repair.rollback_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "capture.history_events_final", Unit: "count", Better: "lower"},
	{Name: "fib.updates_per_static_flip", Unit: "count", Better: "lower"},
	{Name: "fib.updates_per_link_flap", Unit: "count", Better: "lower"},
	{Name: "eqclass.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "eqclass.resigned_per_update", Unit: "count", Better: "lower"},
	{Name: "eqclass.classof_ns", Unit: "ns", Better: "lower"},
	{Name: "dist.local_round_static_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.local_round_link_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.relabel_round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.wire_bytes_per_update", Unit: "bytes", Better: "lower"},
	{Name: "dist.frames_per_update", Unit: "count", Better: "lower"},
	{Name: "localck.certified_per_round", Unit: "count", Better: "higher"},
	{Name: "localck.escalated_per_round", Unit: "count", Better: "lower"},
	{Name: "serve.hit_query_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.miss_plan_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.executed_per_write", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.query_us_p99", Unit: "us", Better: "lower"},
	{Name: "dataplane.walk_us_p50", Unit: "us", Better: "lower"},
	{Name: "whatif.emulate_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc.kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "alloc.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "tail.op_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.op_pct", Unit: "%", Better: "higher"},
	{Name: "tail.heavy_op_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.heavy_op_pct", Unit: "%", Better: "higher"},
	{Name: "samples.op", Unit: "count", Better: "higher"},
	{Name: "samples.heavy_op", Unit: "count", Better: "higher"},
	{Name: "trace.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "machine.calib_ms_before", Unit: "ms", Better: "lower"},
	{Name: "machine.calib_ms_after", Unit: "ms", Better: "lower"},
}
