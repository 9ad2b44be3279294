package main

// The benchmark's vocabulary: workload names with the reason each exists,
// end-to-end metrics with their regression bounds, and per-layer metrics.
// BENCHMARK.json at the repository root repeats these tables for the driver;
// the smoke test asserts the two stay equal, so a name added here without the
// JSON (or the reverse) fails tier-1.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 8

// metricDef names one metric. Bound is the share of the base median by which
// an end-to-end metric may worsen before -compare calls it a regression;
// per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"scan_selective", "sigma_L=0.02 with the advisor choosing: nearly every L row dies in the scan, so format+compress+hdfs dominate; a join or bus gain must not show here"},
	{"shuffle_heavy", "sigma_L=0.3, S_L'=0.8, forced repartition without Bloom: every L' row is encoded, bussed, built, probed and concatenated, so relop+batch+netsim dominate"},
	{"dbside_bloom", "sigma_L=0.1, forced db(BF): the same scan feeds an ingest and a DB-side join, so a gain bought for the HDFS-side join at the DB side's expense shows here"},
	{"star_cascade", "4-join snowflake over a star schema: the second executor (sqlparse JOIN..ON, analyzer, core.RunMulti, cascaded Bloom filters) that no two-table workload touches"},
	{"skew_zipf", "Zipf(1.1) join keys, adaptive switching on, forced repartition(BF): sketch, handshake and hybrid partitioner run, and the slowest receiver sets the time"},
	{"mixed_concurrent", "3:1 scan:point mix from min(nproc,4) closed-loop clients through Submit under a memory budget that evicts builds: sched, mem, spilling and recorder contention"},
	{"advisor_grid", "three selectivity points x six paper algorithms, round-robin: which algorithm wins where on this implementation, and whether the advisor picks it"},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p75_ms", "ms", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"moved_mb_per_query", "MB", "lower", 0.1},
}

var perLayer = []metricDef{
	{"advisor_regret", "ratio", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},

	{"format.hwc_decode_ns_per_row", "ns/row", "lower", 0},
	{"format.hwc_bytes_per_row", "B/row", "lower", 0},
	{"format.hwc_write_ns_per_row", "ns/row", "lower", 0},
	{"format.text_parse_ns_per_row", "ns/row", "lower", 0},
	{"compress.decode_mb_per_s", "MB/s", "higher", 0},
	{"hdfs.readat_mb_per_s", "MB/s", "higher", 0},

	{"expr.filter_ns_per_row", "ns/row", "lower", 0},
	{"expr.eval_ns_per_row", "ns/row", "lower", 0},
	{"expr.filter_pass_frac", "ratio", "lower", 0},

	{"bloom.add_ns_per_key", "ns/key", "lower", 0},
	{"bloom.test_ns_per_key", "ns/key", "lower", 0},
	{"bloom.pass_frac", "ratio", "lower", 0},
	{"bloom.fp_frac", "ratio", "lower", 0},

	{"batch.encode_ns_per_row", "ns/row", "lower", 0},
	{"batch.decode_ns_per_row", "ns/row", "lower", 0},
	{"batch.wire_bytes_per_row", "B/row", "lower", 0},
	{"batch.concat_ns_per_row", "ns/row", "lower", 0},

	{"netsim.chan_frames_per_s", "1/s", "higher", 0},
	{"netsim.chan_mb_per_s", "MB/s", "higher", 0},
	{"netsim.tcp_frames_per_s", "1/s", "higher", 0},
	{"netsim.bytes_cross_per_query", "B", "lower", 0},
	{"netsim.bytes_intra_per_query", "B", "lower", 0},
	{"netsim.msgs_per_query", "count", "lower", 0},

	{"cluster.partition_ns_per_key", "ns/key", "lower", 0},
	{"skew.route_ns_per_key", "ns/key", "lower", 0},
	{"skew.sketch_add_ns_per_key", "ns/key", "lower", 0},
	{"skew.hot_share", "ratio", "lower", 0},
	{"core.shuffle_balance", "ratio", "lower", 0},

	{"relop.build_ns_per_row", "ns/row", "lower", 0},
	{"relop.probe_ns_per_row", "ns/row", "lower", 0},
	{"relop.agg_ns_per_row", "ns/row", "lower", 0},
	{"relop.max_bucket", "count", "lower", 0},
	{"relop.spill_build_ns_per_row", "ns/row", "lower", 0},
	{"relop.spill_evictions_per_query", "count", "lower", 0},

	{"edw.scan_ns_per_row", "ns/row", "lower", 0},
	{"edw.bloom_build_ns_per_row", "ns/row", "lower", 0},
	{"edw.load_ns_per_row", "ns/row", "lower", 0},

	{"jen.scan_filter_ns_per_row", "ns/row", "lower", 0},
	{"jen.scan_mb_per_query", "MB", "lower", 0},

	{"sqlparse.parse_us", "us", "lower", 0},
	{"plan.plan_us", "us", "lower", 0},
	{"analyzer.analyze_us", "us", "lower", 0},
	{"costmodel.advise_us", "us", "lower", 0},
	{"sampling.hotkey_ms", "ms", "lower", 0},
	{"sampling.sigma_l_ms", "ms", "lower", 0},

	{"core.exec_ms", "ms", "lower", 0},
	{"core.shuffle_tuples_per_query", "count", "lower", 0},
	{"core.join_output_tuples_per_query", "count", "lower", 0},
	{"core.db_sent_tuples_per_query", "count", "lower", 0},
	{"core.algo_ms.db", "ms", "lower", 0},
	{"core.algo_ms.db-bf", "ms", "lower", 0},
	{"core.algo_ms.broadcast", "ms", "lower", 0},
	{"core.algo_ms.repartition", "ms", "lower", 0},
	{"core.algo_ms.repartition-bf", "ms", "lower", 0},
	{"core.algo_ms.zigzag", "ms", "lower", 0},

	{"sched.submit_ns_per_op", "ns/op", "lower", 0},
	{"sched.peak_running", "count", "higher", 0},
	{"mem.reserve_ns_per_op", "ns/op", "lower", 0},
	{"mem.peak_reserved_mb", "MB", "lower", 0},
	{"metrics.add_ns_per_op", "ns/op", "lower", 0},

	{"runtime.alloc_mb_per_query", "MB", "lower", 0},
	{"runtime.allocs_per_query", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
}

// metricByName finds a definition in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}
