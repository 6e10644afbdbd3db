package main

// The metric vocabulary. BENCHMARK.json at the repository root carries
// the same lists (a test holds the two together); later changes claim
// against these names.

// metric is one named measurement.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a count that must repeat exactly from run to run of
	// one commit; -compare demands equality for it.
	exact bool
}

// endToEndMetrics are client-observed (cpu and rss are read from the
// daemons' /proc entries); each bound is the share of the parent's
// median by which the metric may worsen. The bounds are as wide as the
// contract allows because the reference machine's own speed moves that
// much between runs (README.md records the evidence); a change that
// claims a gain pairs its runs instead of trusting two medians.
var endToEndMetrics = []metric{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_request", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerMetrics come from the traced run, one group per layer.
var perLayerMetrics = []metric{
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.bytes_in_per_request", Unit: "B", Better: "lower"},
	{Name: "server.bytes_out_per_request", Unit: "B", Better: "lower"},
	{Name: "server.http_non2xx", Unit: "count", Better: "lower"},

	{Name: "graph.read_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graph.nodes_per_request", Unit: "count", Better: "lower"},
	{Name: "hlo.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "hlo.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "exprparse.relation_ms", Unit: "ms", Better: "lower"},

	{Name: "lemmas.registry_build_ms", Unit: "ms", Better: "lower"},

	{Name: "fingerprint.cone_hash_ms", Unit: "ms", Better: "lower"},
	{Name: "fingerprint.us_per_node", Unit: "us", Better: "lower"},

	{Name: "core.check_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.check_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "core.diffplan_ms", Unit: "ms", Better: "lower"},
	{Name: "core.diffcheck_ms", Unit: "ms", Better: "lower"},
	{Name: "core.op_check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.op_check_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "core.ops_checked", Unit: "count", Better: "lower", exact: true},
	{Name: "core.ops_replayed", Unit: "count", Better: "higher", exact: true},
	{Name: "core.ops_rechecked", Unit: "count", Better: "lower", exact: true},
	{Name: "core.replay_share", Unit: "share", Better: "higher"},
	{Name: "core.allocs_per_check_cold", Unit: "count", Better: "lower"},
	{Name: "core.kb_per_check_cold", Unit: "KB", Better: "lower"},

	{Name: "egraph.iterations", Unit: "count", Better: "lower", exact: true},
	{Name: "egraph.matches", Unit: "count", Better: "lower", exact: true},
	{Name: "egraph.applications", Unit: "count", Better: "lower", exact: true},
	{Name: "egraph.nodes", Unit: "count", Better: "lower", exact: true},
	{Name: "egraph.applications_per_match", Unit: "share", Better: "higher"},
	{Name: "egraph.budget_hits", Unit: "count", Better: "lower", exact: true},

	{Name: "vcache.get_mem_us", Unit: "us", Better: "lower"},
	{Name: "vcache.get_disk_us", Unit: "us", Better: "lower"},
	{Name: "vcache.put_us", Unit: "us", Better: "lower"},
	{Name: "vcache.encode_us", Unit: "us", Better: "lower"},
	{Name: "vcache.decode_us", Unit: "us", Better: "lower"},
	{Name: "vcache.mem_hit_share", Unit: "share", Better: "higher"},
	{Name: "vcache.disk_hit_share", Unit: "share", Better: "lower"},
	{Name: "vcache.evictions", Unit: "count", Better: "lower"},
	{Name: "vcache.stores", Unit: "count", Better: "lower"},

	{Name: "cluster.fetch_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.offer_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.forwards_per_request", Unit: "count", Better: "lower"},
	{Name: "cluster.peer_fetches_per_request", Unit: "count", Better: "lower"},
	{Name: "cluster.peer_hit_share", Unit: "share", Better: "higher"},
	{Name: "cluster.degraded", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_failures", Unit: "count", Better: "lower"},

	{Name: "harness.shape_violations", Unit: "count", Better: "lower"},
	{Name: "harness.trace_coverage", Unit: "share", Better: "higher"},
}

func unitsOf(lists ...[]metric) map[string]string {
	units := map[string]string{}
	for _, l := range lists {
		for _, m := range l {
			units[m.Name] = m.Unit
		}
	}
	return units
}
