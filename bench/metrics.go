package main

// metricDef names one metric, its unit and which direction is better.
// BENCHMARK.json lists the same names and units; the smoke test checks
// that the two agree.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a caller of the pipeline sees. Every workload
// reports every one of them from an untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "events/s", "higher"},
	{"verdicts_per_s", "1/s", "higher"},
	{"verdict_ms_p50", "ms", "lower"},
	{"verdict_ms_geomean", "ms", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"cpu_s_per_verdict", "s", "lower"},
}

// layerDefs are the traced run's per-layer metrics, named after the
// modules they measure. Every workload prints all of them; a layer the
// workload does not exercise reads 0.
var layerDefs = []metricDef{
	// cilk: the interpreter and its hook dispatch (live, sweep).
	{"cilk.interpret_ns_per_event", "ns/event", "lower"},
	{"cilk.dispatch_ns_per_event", "ns/event", "lower"},
	// peerset and spplus driven live (live).
	{"peerset.live_ns_per_event", "ns/event", "lower"},
	{"spplus.live_ns_per_event", "ns/event", "lower"},
	{"peerset.shadow_lookups_per_event", "count/event", "lower"},
	{"peerset.bag_ops_per_event", "count/event", "lower"},
	{"spplus.shadow_lookups_per_event", "count/event", "lower"},
	{"spplus.bag_ops_per_event", "count/event", "lower"},
	{"fig7.peerset_geomean", "ratio", "lower"},
	{"fig7.spplus_geomean", "ratio", "lower"},
	{"fig8.peerset_geomean", "ratio", "lower"},
	{"fig8.spplus_geomean", "ratio", "lower"},
	// trace: record/encode and decode (replay, elide, serve).
	{"trace.encode_ns_per_event", "ns/event", "lower"},
	{"trace.bytes_per_event", "B/event", "lower"},
	{"trace.decode_ns_per_event", "ns/event", "lower"},
	{"trace.decode_allocs_per_event", "count/event", "lower"},
	// detectors replayed from a trace (replay).
	{"peerset.replay_ns_per_event", "ns/event", "lower"},
	{"spbags.replay_ns_per_event", "ns/event", "lower"},
	{"spplus.replay_ns_per_event", "ns/event", "lower"},
	{"depa.replay_ns_per_event", "ns/event", "lower"},
	{"all.replay_ns_per_event", "ns/event", "lower"},
	{"depa.fast_path_rate", "ratio", "higher"},
	{"depa.shard_merges", "count/op", "lower"},
	// elide (elide).
	{"elide.analyze_ns_per_event", "ns/event", "lower"},
	{"elide.elided_frac", "ratio", "higher"},
	{"elide.skip_replay_ns_per_event", "ns/event", "lower"},
	{"elide.fixup_us", "us", "lower"},
	{"elide.net_ms", "ms", "higher"},
	// report: building and encoding the verdict document.
	{"report.encode_us", "us", "lower"},
	{"report.bytes", "B", "lower"},
	// specgen and the rader sweep scheduler (sweep).
	{"specgen.profile_ms", "ms", "lower"},
	{"specgen.trie_ms", "ms", "lower"},
	{"rader.sweep.units", "count/op", "lower"},
	{"rader.sweep.snapshot_hit_ratio", "ratio", "higher"},
	{"rader.sweep.events_skipped", "count/op", "higher"},
	{"rader.sweep.pages_copied", "count/op", "lower"},
	{"rader.sweep.steals", "count/op", "lower"},
	{"rader.sweep.handoffs", "count/op", "lower"},
	{"rader.sweep.lane_busy_frac", "ratio", "higher"},
	{"rader.sweep.critical_path_ratio", "ratio", "higher"},
	{"rader.sweep.specs_per_s", "1/s", "higher"},
	// service, from raderd's /metrics (serve).
	{"service.queue_ms_mean", "ms", "lower"},
	{"service.run_ms_mean", "ms", "lower"},
	{"service.encode_ms_mean", "ms", "lower"},
	{"service.http_ms_mean", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.shed", "count", "lower"},
	{"service.elide_events_elided", "count", "higher"},
	{"service.verdict_ms_p90", "ms", "lower"},
	// Go runtime of the measured process.
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_bytes_per_event", "B/event", "lower"},
	// The traced run itself.
	{"trace_overhead_frac", "ratio", "lower"},
	{"spans.covered_frac", "ratio", "higher"},
	{"self_ms.op", "ms/op", "lower"},
	{"self_ms.rader.run", "ms/op", "lower"},
	{"self_ms.rader.sweep", "ms/op", "lower"},
	{"self_ms.trace.replay", "ms/op", "lower"},
	{"self_ms.trace.replay_skip", "ms/op", "lower"},
	{"self_ms.elide.analyze", "ms/op", "lower"},
	{"self_ms.elide.fixup", "ms/op", "lower"},
	{"self_ms.report.build", "ms/op", "lower"},
	{"self_ms.report.marshal", "ms/op", "lower"},
	{"self_ms.http.analyze", "ms/op", "lower"},
	{"self_ms.http.decode", "ms/op", "lower"},
}
