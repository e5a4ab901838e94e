package main

import "viewjoin"

// metricDef declares one metric as BENCHMARK.json lists it; the smoke test
// holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would see, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"view_store_mb", "MiB"},
}

// perLayer are the traced pass's metrics, one group per module. A metric
// of a layer the workload does not exercise (server.* on a library
// workload, maintain.* without updates, the other document family's
// queries) reads 0.
func perLayer() []metricDef {
	out := []metricDef{
		{"xmltree.generate_ns_per_node", "ns"},
		{"xmltree.parse_ns_per_node", "ns"},
		{"xmltree.apply_ms_p50", "ms"},
		{"tpq.parse_us_p50", "us"},
		{"views.materialize_ns_per_entry", "ns"},
		{"views.entries", "count"},
		{"store.build_ns_per_entry.LEp", "ns"},
		{"store.bytes_per_entry.T", "B"},
		{"store.bytes_per_entry.E", "B"},
		{"store.bytes_per_entry.LE", "B"},
		{"store.bytes_per_entry.LEp", "B"},
		{"store.pointers_per_entry.LE", "ratio"},
		{"store.pointers_per_entry.LEp", "ratio"},
		{"store.save_us_per_page", "us"},
		{"store.load_resident_us_p50", "us"},
		{"store.open_mmap_us_p50", "us"},
		{"store.load_allocs", "count"},
		{"store.cursor_ns_per_record.E", "ns"},
		{"store.cursor_ns_per_record.LE", "ns"},
		{"store.cursor_ns_per_record.LEp", "ns"},
		{"store.cursor_ns_per_record.LEp-nopool", "ns"},
		{"prepare.us_p50", "us"},
		{"prepare.allocs", "count"},
	}
	for _, e := range []string{"viewjoin", "twigstack"} {
		out = append(out,
			metricDef{"engine." + e + ".evaluate_self_ms_per_sweep", "ms"},
			metricDef{"engine." + e + ".ns_per_scanned", "ns"})
		for _, c := range engineCounts {
			out = append(out, metricDef{"engine." + e + "." + c, "count"})
		}
	}
	out = append(out,
		metricDef{"engine.viewjoin.evaluate_share", "ratio"},
		metricDef{"engine.pathstack.sweep_ms", "ms"},
		metricDef{"engine.interjoin.sweep_ms", "ms"},
		metricDef{"engine.vj_over_ts.time_ratio", "ratio"},
		metricDef{"engine.vj_over_ts.comparisons_ratio", "ratio"},
		metricDef{"enum.self_ms_per_sweep", "ms"},
		metricDef{"enum.ns_per_match", "ns"},
		metricDef{"enum.share", "ratio"},
		metricDef{"output.self_ms_per_sweep", "ms"},
		metricDef{"output.ns_per_match", "ns"},
		metricDef{"counters.pool_hit_ratio", "ratio"},
		metricDef{"server.overhead_us_p50", "us"},
		metricDef{"server.encode_ns_per_match", "ns"},
		metricDef{"server.response_bytes_per_match", "B"},
		metricDef{"server.first_match_us_p50", "us"},
		metricDef{"server.plan_cache_hit_ratio", "ratio"},
		metricDef{"server.prepares", "count"},
		metricDef{"server.shed", "count"},
		metricDef{"server.timeouts", "count"},
		metricDef{"server.reprepare_us_p50", "us"},
		metricDef{"update.p50_ms", "ms"},
		metricDef{"update.p90_ms", "ms"},
		metricDef{"maintain.view_ms_p50", "ms"},
		metricDef{"maintain.rematerialize_ms_p50", "ms"},
		metricDef{"maintain.speedup_vs_remat", "ratio"},
		metricDef{"maintain.fast_path_ratio", "ratio"},
		metricDef{"maintain.shared_page_ratio", "ratio"},
		metricDef{"maintain.compactions", "count"},
		metricDef{"viewsel.select_us", "us"},
		metricDef{"obs.recorder_overhead_ratio", "ratio"},
		metricDef{"obs.span_overhead_ratio", "ratio"},
		metricDef{"runtime.gc_cycles_per_s", "1/s"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.heap_peak_mb", "MiB"},
		metricDef{"client.query_p99_ms", "ms"},
	)
	for _, q := range catalogueNames() {
		out = append(out, metricDef{"query." + q + ".p50_ms", "ms"})
	}
	return out
}

// engineCounts are the engines' deterministic cost counters, reported per
// sweep; engineCountsOf reads them off a run in the same order.
var engineCounts = [...]string{scanned: "scanned", comparisons: "comparisons", derefs: "derefs",
	pagesRead: "pages_read", pageHits: "page_hits", jumpsTaken: "jumps_taken", jumpsRefused: "jumps_refused"}

const (
	scanned = iota
	comparisons
	derefs
	pagesRead
	pageHits
	jumpsTaken
	jumpsRefused
)

func engineCountsOf(st viewjoin.Stats) [len(engineCounts)]int64 {
	return [...]int64{scanned: st.ElementsScanned, comparisons: st.Comparisons, derefs: st.PointerDerefs,
		pagesRead: st.PagesRead, pageHits: st.PageHits, jumpsTaken: st.JumpsTaken, jumpsRefused: st.JumpsRefused}
}
