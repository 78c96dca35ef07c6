package main

import (
	"sort"
	"time"

	"omega/benchmark/stats"
)

// metricDef declares one ledger metric. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatches holds the two together).
type metricDef struct {
	Name, Unit, Better string
}

// The seven end-to-end metrics, the same on every workload, measured with
// tracing off.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"answers_per_s", "rows/s", "higher"},
	{"lat_gm_ms", "ms", "lower"},
	{"ttfa_gm_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"acct_peak_mb", "MB", "lower"},
}

// The per-layer metrics. Those the socket run yields (done-line counters,
// /statsz deltas, the generator's own clocks, /proc) are computed here; the
// rest come from the in-process pass of benchmark/layers.
var perLayerDefs = []metricDef{
	{"core.first_answer_ms", "ms", "lower"},
	{"core.drain_ms", "ms", "lower"},
	{"core.tuples_added_per_answer", "count", "lower"},
	{"core.tuples_popped_per_answer", "count", "lower"},
	{"core.deferred_per_answer", "count", "lower"},
	{"core.reinjected_per_answer", "count", "lower"},
	{"core.psi_phases", "count", "lower"},
	{"core.ns_per_tuple", "ns", "lower"},
	{"core.join_self_ms", "ms", "lower"},
	{"core.bulk_share", "ratio", "higher"},
	{"core.prepare_us", "us", "lower"},
	{"dstruct.dict_ns_per_op", "ns", "lower"},
	{"dstruct.visited_ns_per_add", "ns", "lower"},
	{"dstruct.deferred_ns_per_op", "ns", "lower"},
	{"dstruct.reset_us", "us", "lower"},
	{"graph.neighbors_ns_per_edge", "ns", "lower"},
	{"graph.load_ms", "ms", "lower"},
	{"query.parse_us", "us", "lower"},
	{"automaton.build_us.approx", "us", "lower"},
	{"automaton.build_us.relax", "us", "lower"},
	{"automaton.states", "count", "lower"},
	{"automaton.trans", "count", "lower"},
	{"bulk.index_ms", "ms", "lower"},
	{"bulk.run_ns_per_pair", "ns", "lower"},
	{"bitset.orinto_ns_per_word", "ns", "lower"},
	{"serve.handler_overhead_us", "us", "lower"},
	{"serve.encode_write_ns_per_row", "ns", "lower"},
	{"serve.queue_wait_p50_ms", "ms", "lower"},
	{"serve.queue_wait_p95_ms", "ms", "lower"},
	{"serve.plan_cache_hit_ratio", "ratio", "higher"},
	{"serve.compile_ms_per_miss", "ms", "lower"},
	{"serve.pool_reuse_ratio", "ratio", "higher"},
	{"client.socket_us_per_req", "us", "lower"},
	{"client.lat_p50_ms", "ms", "lower"},
	{"client.lat_p95_ms", "ms", "lower"},
	{"client.lat_max_ms", "ms", "lower"},
	{"client.gap_p99_us", "us", "lower"},
	{"client.sched_lag_p99_ms", "ms", "lower"},
	{"client.req_per_s_window", "1/s", "higher"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"trace.self_time_coverage", "ratio", "higher"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.gc_cycles_per_kreq", "count", "lower"},
	{"proc.heap_inuse_mb", "MB", "lower"},
}

// endToEnd computes the seven end-to-end metrics of one workload from its
// boot cycles and its untraced window. Every timing is a lower quartile (see
// stats.LowerQuartile): of the boots for setup_s, of block time per request
// and per row for throughput, of per-block CPU for cpu_ms_per_req, of each
// class's samples for the latencies.
func endToEnd(w *Workload, setups []float64, win *Window) map[string]float64 {
	m := map[string]float64{
		"setup_s":      stats.LowerQuartile(setups),
		"lat_gm_ms":    stats.GeoMeanOfClassQuartiles(win.Lat),
		"ttfa_gm_ms":   stats.GeoMeanOfClassQuartiles(win.TTFA),
		"acct_peak_mb": float64(win.PeakAcct) / 1e6,
	}
	var walls []time.Duration
	var cpu, reqs, rows []float64
	for _, b := range win.Blocks {
		walls = append(walls, b.Wall)
		reqs = append(reqs, float64(b.OK))
		rows = append(rows, float64(b.Rows))
		if b.OK > 0 {
			cpu = append(cpu, b.CPU*1e3/float64(b.OK))
		}
	}
	m["cpu_ms_per_req"] = stats.LowerQuartile(cpu)
	if w.Open {
		m["req_per_s"] = float64(win.OK) / win.Wall.Seconds()
		m["answers_per_s"] = float64(win.Rows) / win.Wall.Seconds()
	} else {
		m["req_per_s"] = stats.PerBlockRate(reqs, walls)
		m["answers_per_s"] = stats.PerBlockRate(rows, walls)
	}
	return m
}

// tailNote records which percentile a tail metric was actually read at.
type tailNote struct {
	Name string
	Used float64
	N    int
}

// socketLayers computes the per-layer metrics the socket run yields. win is
// the untraced window, st0/st1 the /statsz snapshots around it.
func socketLayers(win *Window, st0, st1 Statsz) (map[string]float64, []tailNote) {
	m := map[string]float64{}
	var notes []tailNote
	tail := func(name string, xs []float64, want float64) {
		v, used, n := stats.Tail(xs, want)
		m[name] = v
		notes = append(notes, tailNote{name, used, n})
	}
	if win.Rows > 0 {
		rows := float64(win.Rows)
		m["core.tuples_added_per_answer"] = float64(win.Added) / rows
		m["core.tuples_popped_per_answer"] = float64(win.Popped) / rows
		m["core.deferred_per_answer"] = float64(win.Deferred) / rows
		m["core.reinjected_per_answer"] = float64(win.Reinjected) / rows
	}
	if win.OK > 0 {
		m["core.psi_phases"] = float64(win.Phases) / float64(win.OK)
		m["core.bulk_share"] = float64(win.Bulk) / float64(win.OK)
		m["proc.gc_cycles_per_kreq"] = float64(st1.Runtime.NumGC-st0.Runtime.NumGC) * 1e3 / float64(win.OK)
		m["client.req_per_s_window"] = float64(win.OK) / win.Wall.Seconds()
	}
	tail("serve.queue_wait_p50_ms", win.QueueWait, 50)
	tail("serve.queue_wait_p95_ms", win.QueueWait, 95)
	hits, misses := st1.PlanCache.Hits-st0.PlanCache.Hits, st1.PlanCache.Misses-st0.PlanCache.Misses
	if hits+misses > 0 {
		m["serve.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if misses > 0 {
		m["serve.compile_ms_per_miss"] = win.CompileMs / float64(misses)
	}
	if gets := st1.Pool.Gets - st0.Pool.Gets; gets > 0 {
		m["serve.pool_reuse_ratio"] = float64(st1.Pool.Reuses-st0.Pool.Reuses) / float64(gets)
	}
	var all []float64
	for _, xs := range win.Lat {
		all = append(all, xs...)
	}
	sort.Float64s(all)
	tail("client.lat_p50_ms", all, 50)
	tail("client.lat_p95_ms", all, 95)
	if len(all) > 0 {
		m["client.lat_max_ms"] = all[len(all)-1]
	}
	tail("client.sched_lag_p99_ms", win.Lag, 99)
	m["proc.heap_inuse_mb"] = float64(st1.Runtime.HeapInuseBytes) / 1e6
	return m, notes
}

// joinSelfMs reads core.join_self_ms off the server's own span trees: for
// the multi-conjunct classes, the part of the exec span that no conjunct
// span covers — plan instantiation, join state and tear-down — as the median
// over traced requests.
func joinSelfMs(traces []classTrace) float64 {
	var self []float64
	for _, ct := range traces {
		for _, n := range ct.Tree.Children {
			if n.Name != "exec" {
				continue
			}
			spans := []stats.Span{{Name: n.Name, Parent: -1, StartNs: int64(n.StartMs * 1e6), EndNs: int64((n.StartMs + n.DurMs) * 1e6)}}
			for _, c := range n.Children {
				if c.Name == "conjunct" {
					spans = append(spans, stats.Span{Name: c.Name, Parent: 0, StartNs: int64(c.StartMs * 1e6), EndNs: int64((c.StartMs + c.DurMs) * 1e6)})
				}
			}
			if len(spans) > 2 { // a join: two conjuncts or more
				self = append(self, float64(stats.SelfTimes(spans)[0])/1e6)
			}
		}
	}
	return stats.Median(self)
}
