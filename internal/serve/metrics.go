package serve

import (
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"omega"

	"omega/internal/fault"
	"omega/internal/obs"
)

// serverMetrics wires every serving subsystem into one obs.Registry for the
// /metricsz Prometheus endpoint. Two registration styles (see internal/obs):
// collector callbacks snapshot the stats the scheduler, broker, pool, plan
// cache and fault registry already keep, so scraping adds no bookkeeping to
// those subsystems; the request-path figures nothing else tracks (status
// codes, latency phases) are direct instruments updated once per request.
type serverMetrics struct {
	reg   *obs.Registry
	start time.Time

	requests  *obs.CounterVec   // omega_requests_total{code}
	duration  *obs.HistogramVec // omega_request_duration_seconds{backend}
	ttfr      *obs.HistogramVec // omega_request_ttfr_seconds{backend}
	queueWait *obs.Histogram    // omega_request_queue_wait_seconds
	compile   *obs.Histogram    // omega_request_compile_seconds

	// /query response bodies, counted at every write (see rowWriter.flush).
	respRows    atomic.Int64 // omega_serve_response_rows_total
	respFlushes atomic.Int64 // omega_serve_response_flushes_total
	respBytes   atomic.Int64 // omega_serve_response_bytes_total
}

// buildInfo resolves the module version, VCS revision and Go version baked
// into the binary ("unknown" where the build left no record).
func buildInfo() (version, revision, goVersion string) {
	version, revision, goVersion = "unknown", "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			revision = s.Value
		}
	}
	return
}

// gapUppers converts the scheduler's power-of-two microsecond gap buckets to
// Prometheus upper bounds in seconds: scheduler bucket i counts gaps below
// 2^i µs, and its top bucket is the +Inf overflow.
func gapUppers() []float64 {
	uppers := make([]float64, gapBuckets-1)
	for i := range uppers {
		uppers[i] = float64(uint64(1)<<uint(i)) / 1e6
	}
	return uppers
}

func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{reg: obs.NewRegistry(), start: time.Now()}
	r := m.reg

	version, revision, goVersion := buildInfo()
	r.Collect("omega_build_info", "gauge",
		"Build metadata; the value is always 1.",
		func(emit func(v float64, labels ...obs.Label)) {
			emit(1,
				obs.Label{Name: "version", Value: version},
				obs.Label{Name: "revision", Value: revision},
				obs.Label{Name: "go_version", Value: goVersion})
		})
	r.Gauge("omega_process_start_time_seconds",
		"Unix time the serving process started.",
		func() float64 { return float64(m.start.UnixNano()) / 1e9 })

	// Scheduler: admission, completion and fairness counters.
	schedStat := func(f func(SchedulerStats) float64) func() float64 {
		return func() float64 { return f(s.sched.Stats()) }
	}
	r.Counter("omega_sched_submitted_total", "Requests admitted by the scheduler.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Submitted) }))
	r.Counter("omega_sched_rejected_total", "Admission rejections (overloaded).",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Rejected) }))
	r.Counter("omega_sched_completed_total", "Requests finished without error.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Completed) }))
	r.Counter("omega_sched_failed_total", "Requests finished with an error.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Failed) }))
	r.Counter("omega_sched_panics_total", "Panics recovered while running a request.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Panics) }))
	r.Counter("omega_sched_stalled_total", "Requests aborted by the stall watchdog.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Stalled) }))
	r.Gauge("omega_sched_in_flight", "Requests admitted and not yet finished.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.InFlight) }))
	r.Gauge("omega_sched_queued", "Requests waiting for a slot.",
		schedStat(func(st SchedulerStats) float64 { return float64(st.Queued) }))
	r.CollectHist("omega_sched_row_gap_seconds",
		"Gap between successive rows reaching the request's sink, the first row's gap counted from the start of the execution; measured before the response writer coalesces rows, so it is not the gap a client sees on the socket. The sum is an upper-bound estimate from bucket bounds.",
		func(emit func(h obs.HistSnapshot, labels ...obs.Label)) {
			counts, _ := s.sched.GapSnapshot()
			uppers := gapUppers()
			var sum float64
			for i, c := range counts {
				if i < len(uppers) {
					sum += float64(c) * uppers[i]
				} else {
					sum += float64(c) * uppers[len(uppers)-1]
				}
			}
			emit(obs.HistSnapshot{Uppers: uppers, Counts: counts, Sum: sum})
		})

	// Plan cache.
	cacheStat := func(f func(CacheStats) float64) func() float64 {
		return func() float64 { return f(s.cache.Stats()) }
	}
	r.Gauge("omega_plan_cache_entries", "Prepared plans currently cached.",
		cacheStat(func(st CacheStats) float64 { return float64(st.Entries) }))
	r.Counter("omega_plan_cache_hits_total", "Plan-cache lookups served from cache.",
		cacheStat(func(st CacheStats) float64 { return float64(st.Hits) }))
	r.Counter("omega_plan_cache_misses_total", "Plan-cache lookups that compiled.",
		cacheStat(func(st CacheStats) float64 { return float64(st.Misses) }))
	r.Counter("omega_plan_cache_evictions_total", "Plans evicted by the LRU bound.",
		cacheStat(func(st CacheStats) float64 { return float64(st.Evictions) }))
	r.Counter("omega_plan_cache_failures_total", "Compilations that errored (not cached).",
		cacheStat(func(st CacheStats) float64 { return float64(st.Failures) }))

	// Evaluator-state pool (absent when pooling is disabled).
	if s.pool != nil {
		poolStat := func(f func(omega.PoolStats) float64) func() float64 {
			return func() float64 { return f(s.pool.Stats()) }
		}
		r.Counter("omega_pool_gets_total", "Evaluator-state acquisitions.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Gets) }))
		r.Counter("omega_pool_reuses_total", "Acquisitions served from the free list.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Reuses) }))
		r.Counter("omega_pool_misses_total", "Acquisitions that allocated fresh bundles.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Misses) }))
		r.Counter("omega_pool_puts_total", "Bundles returned by finished executions.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Puts) }))
		r.Counter("omega_pool_discarded_total", "Returned bundles dropped instead of recycled.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Discarded) }))
		r.Counter("omega_pool_poisoned_total", "Bundles discarded after an aborted execution.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Poisoned) }))
		r.Gauge("omega_pool_idle", "Bundles currently on the free list.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.Idle) }))
		r.Gauge("omega_pool_idle_bytes", "Capacity the free-list bundles retain between requests.",
			poolStat(func(st omega.PoolStats) float64 { return float64(st.IdleBytes) }))
	}

	// Memory broker (absent when no budget is configured).
	if s.broker != nil {
		brokerStat := func(f func(BrokerStats) float64) func() float64 {
			return func() float64 { return f(s.broker.Stats()) }
		}
		r.Gauge("omega_mem_budget_bytes", "Global accounted-bytes budget.",
			brokerStat(func(st BrokerStats) float64 { return float64(st.BudgetBytes) }))
		r.Gauge("omega_mem_live_bytes", "Accounted live bytes at the last monitor tick.",
			brokerStat(func(st BrokerStats) float64 { return float64(st.LiveBytes) }))
		r.Gauge("omega_mem_peak_live_bytes", "Lifetime peak of accounted live bytes.",
			brokerStat(func(st BrokerStats) float64 { return float64(st.PeakLiveBytes) }))
		r.Counter("omega_mem_victim_kills_total", "Executions aborted by the pressure monitor.",
			brokerStat(func(st BrokerStats) float64 { return float64(st.VictimKills) }))
		r.Counter("omega_mem_budget_aborts_total", "Requests failed with the memory-budget error.",
			brokerStat(func(st BrokerStats) float64 { return float64(st.BudgetAborts) }))
	}

	// Fault-injection registry: one series per armed site (none in
	// production, where the table is empty).
	faultStat := func(f func(fault.SiteStats) float64) func(emit func(v float64, labels ...obs.Label)) {
		return func(emit func(v float64, labels ...obs.Label)) {
			st := fault.Stats()
			sites := make([]string, 0, len(st))
			for name := range st {
				sites = append(sites, name)
			}
			sort.Strings(sites)
			for _, name := range sites {
				emit(f(st[name]), obs.Label{Name: "site", Value: name})
			}
		}
	}
	r.Collect("omega_fault_hits_total", "counter",
		"Failpoint evaluations while the site was armed.",
		faultStat(func(st fault.SiteStats) float64 { return float64(st.Hits) }))
	r.Collect("omega_fault_fires_total", "counter",
		"Failpoint actions actually executed.",
		faultStat(func(st fault.SiteStats) float64 { return float64(st.Fires) }))

	// Request-path instruments.
	m.requests = r.CounterVec("omega_requests_total",
		"Query requests by HTTP status code.", "code")
	m.duration = r.HistogramVec("omega_request_duration_seconds",
		"End-to-end query latency by evaluation backend.", "backend", obs.LatencyBuckets())
	m.ttfr = r.HistogramVec("omega_request_ttfr_seconds",
		"Admission-to-first-row latency by evaluation backend.", "backend", obs.LatencyBuckets())
	m.queueWait = obs.NewHistogram(obs.LatencyBuckets())
	r.CollectHist("omega_request_queue_wait_seconds",
		"Time between admission and taking a slot.",
		func(emit func(h obs.HistSnapshot, labels ...obs.Label)) {
			emit(m.queueWait.Snapshot())
		})
	m.compile = obs.NewHistogram(obs.LatencyBuckets())
	r.CollectHist("omega_request_compile_seconds",
		"Plan-cache lookup latency including compilation on misses.",
		func(emit func(h obs.HistSnapshot, labels ...obs.Label)) {
			emit(m.compile.Snapshot())
		})

	// Response bodies: rows per flush and bytes per row are the two ratios
	// that show whether the flush rule is doing its job.
	r.Counter("omega_serve_response_rows_total", "Answer rows written to /query responses.",
		func() float64 { return float64(m.respRows.Load()) })
	r.Counter("omega_serve_response_flushes_total", "Writes (each flushed to the socket) of /query response bodies.",
		func() float64 { return float64(m.respFlushes.Load()) })
	r.Counter("omega_serve_response_bytes_total", "Bytes written to /query response bodies, terminal lines included.",
		func() float64 { return float64(m.respBytes.Load()) })

	return m
}

// observeFlush records one write of a /query response body.
func (m *serverMetrics) observeFlush(rows, bytes int) {
	m.respRows.Add(int64(rows))
	m.respFlushes.Add(1)
	m.respBytes.Add(int64(bytes))
}

// backendLabel keeps the backend label well-formed for requests that died
// before an execution reported one.
func backendLabel(backend string) string {
	if backend == "" {
		return "none"
	}
	return backend
}

// observeRequest records one finished query request (whatever its outcome).
// Zero-valued phases that never happened (no first row, never took a slot) are
// skipped rather than recorded as instant.
func (m *serverMetrics) observeRequest(code int, backend string, total, queueWait, compileDur, ttfr time.Duration) {
	m.requests.Inc(strconv.Itoa(code))
	m.duration.With(backendLabel(backend)).Observe(total.Seconds())
	if queueWait > 0 {
		m.queueWait.Observe(queueWait.Seconds())
	}
	if compileDur > 0 {
		m.compile.Observe(compileDur.Seconds())
	}
	if ttfr > 0 {
		m.ttfr.With(backendLabel(backend)).Observe(ttfr.Seconds())
	}
}

// handleMetricsz renders every registered family in the Prometheus text
// exposition format (version 0.0.4).
func (m *serverMetrics) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.reg.WritePrometheus(w)
}
