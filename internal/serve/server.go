package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"omega"
	"omega/internal/fault"
	"omega/internal/obs"
)

// Config assembles a Server. Engine is required; everything else defaults.
type Config struct {
	// Engine evaluates the queries (its Options fix costs, optimisation
	// strategies and spilling for every request).
	Engine *omega.Engine
	// Scheduler sizing; see SchedulerConfig (Queue: 0 = default, negative =
	// no waiting queue).
	Workers, Queue, Quantum int
	// Timeout is the default per-request deadline applied when the request
	// carries no timeout parameter (0 = none).
	Timeout time.Duration
	// RetryAfter is the back-off hint sent with 503 rejections (default 1s).
	RetryAfter time.Duration
	// StallBudget, when positive, arms the stuck-query watchdog: a request
	// whose scheduling turn makes no progress for longer than the budget is
	// aborted and answered with 504 (see SchedulerConfig.StallBudget).
	StallBudget time.Duration
	// DegradeAfter / DegradeWindow arm degraded-mode admission: when the last
	// DegradeAfter admission rejections all fell within DegradeWindow
	// (default 10s), new requests run with tightened defaults (DegradedLimit,
	// DegradedMaxDist) and their done line carries "degraded": true. 0
	// disables.
	DegradeAfter  int
	DegradeWindow time.Duration
	// DegradedLimit, when positive, caps the per-request row limit while
	// degraded mode holds (requests asking for more, or for everything, are
	// clamped down to it).
	DegradedLimit int
	// DegradedMaxDist, when positive, caps the per-request maxdist while
	// degraded mode holds.
	DegradedMaxDist int
	// PlanCacheSize bounds the LRU of prepared queries (default 128).
	PlanCacheSize int
	// PoolSize bounds the evaluator-state pool (default: Workers so the
	// steady state retains one bundle per worker; multi-conjunct workloads
	// may want more). Negative disables pooling.
	PoolSize int
	// MaxLimit caps the per-request row limit; requests asking for more (or
	// for everything) are clamped. 0 means no cap.
	MaxLimit int
	// MemBudget is the server-wide accounted-bytes budget enforced by the
	// memory broker: admission reserves MemReserve bytes per request against
	// it (rejecting with 503 + Retry-After when exhausted), and under
	// sustained pressure the largest-footprint running query is aborted with
	// omega.ErrMemBudget (507). 0 defaults to GOMEMLIMIT when that is set and
	// disables the broker otherwise; negative disables explicitly.
	MemBudget int64
	// MemReserve is the per-request admission reservation (default:
	// MemBudget divided by the scheduler's admission bound).
	MemReserve int64
	// MemCheckInterval paces the broker's victim-selection monitor (default
	// 100ms).
	MemCheckInterval time.Duration
	// SoftMemBytes / HardMemBytes are the default per-request memory
	// watermarks applied when the request carries no softmem/hardmem
	// parameter: crossing the soft watermark degrades the execution to disk
	// spilling, crossing the hard one aborts it with omega.ErrMemBudget
	// (507). 0 disables either.
	SoftMemBytes int64
	HardMemBytes int64
	// Parallelism is the default per-request worker count applied when the
	// request carries no parallel parameter; see omega.ExecOptions.
	// 0 means serial.
	Parallelism int
	// SlowQuery, when positive, arms the slow-query log: every request whose
	// end-to-end latency reaches the threshold is logged as one structured
	// JSON line (request ID, query text, timings, evaluation counters) via
	// Log. 0 disables.
	SlowQuery time.Duration
	// Log, when non-nil, receives one line per finished request (rows,
	// latency, evaluation counters) and server lifecycle events.
	Log *log.Logger
}

// Server is the HTTP front-end: an NDJSON streaming endpoint over the plan
// cache, the scheduler and the evaluator-state pool.
//
// Endpoints:
//
//	GET/POST /query    — evaluate; streams NDJSON (see handleQuery)
//	GET      /healthz  — liveness
//	GET      /statsz   — scheduler / plan-cache / pool / fault / build stats as JSON
//	GET      /metricsz — Prometheus text exposition (see internal/serve/metrics.go)
type Server struct {
	eng       *omega.Engine
	cache     *PlanCache
	sched     *Scheduler
	pool      *omega.EvalPool
	broker    *memBroker // nil when no memory budget is configured
	mux       *http.ServeMux
	degLimit  int           // degraded-mode row-limit clamp (0 = no clamp)
	degDist   int           // degraded-mode maxdist clamp (0 = no clamp)
	softMem   int64         // default per-request soft memory watermark (0 = none)
	hardMem   int64         // default per-request hard memory watermark (0 = none)
	parallel  int           // default per-request worker count (0 = serial)
	timeout   time.Duration // default per-request deadline (0 = none)
	stall     time.Duration // the scheduler's stall budget; also bounds every response write
	slowQuery time.Duration
	metrics   *serverMetrics
	logf      func(format string, args ...any)
}

// New assembles a Server from cfg. Close it to drain in-flight requests.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("serve: Config.Engine is required")
	}
	sc := SchedulerConfig{
		Workers:       cfg.Workers,
		Queue:         cfg.Queue,
		Quantum:       cfg.Quantum,
		RetryAfter:    cfg.RetryAfter,
		StallBudget:   cfg.StallBudget,
		DegradeAfter:  cfg.DegradeAfter,
		DegradeWindow: cfg.DegradeWindow,
	}.withDefaults()
	s := &Server{
		eng:       cfg.Engine,
		cache:     NewPlanCache(cfg.Engine, cfg.PlanCacheSize),
		sched:     NewScheduler(sc),
		broker:    newMemBroker(cfg.MemBudget, cfg.MemReserve, cfg.MemCheckInterval, sc.Workers+sc.queueSlots()),
		degLimit:  cfg.DegradedLimit,
		degDist:   cfg.DegradedMaxDist,
		softMem:   cfg.SoftMemBytes,
		hardMem:   cfg.HardMemBytes,
		parallel:  cfg.Parallelism,
		timeout:   cfg.Timeout,
		stall:     cfg.StallBudget,
		slowQuery: cfg.SlowQuery,
		logf:      func(string, ...any) {},
	}
	if cfg.Log != nil {
		s.logf = cfg.Log.Printf
	}
	if cfg.PoolSize >= 0 {
		size := cfg.PoolSize
		if size == 0 {
			size = sc.Workers
		}
		s.pool = omega.NewEvalPool(size)
	}
	s.metrics = newServerMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) { s.handleQuery(w, r, cfg.MaxLimit) })
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.metrics.handleMetricsz)
	return s
}

// Metrics exposes the server's metrics registry (the /metricsz families).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the underlying scheduler (stats, retry hint).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Pool exposes the evaluator-state pool (nil when disabled).
func (s *Server) Pool() *omega.EvalPool { return s.pool }

// PlanCache exposes the prepared-plan cache.
func (s *Server) PlanCache() *PlanCache { return s.cache }

// Close stops admission and drains every in-flight request; after it returns,
// no request holds evaluator state or spill files. Call it after the HTTP
// listener has shut down.
func (s *Server) Close() error {
	err := s.sched.Close()
	if s.broker != nil {
		s.broker.Close()
	}
	s.logf("serve: scheduler drained")
	return err
}

// doneLine terminates a successful stream. Degraded marks responses produced
// under degraded-mode admission, whose limit/maxdist may have been clamped
// below what the client asked for — the client can tell a short answer from
// a complete one.
type doneLine struct {
	Done      bool         `json:"done"`
	RequestID string       `json:"request_id"`
	Rows      int          `json:"rows"`
	ElapsedMs float64      `json:"elapsed_ms"`
	Degraded  bool         `json:"degraded,omitempty"`
	Stats     statsLine    `json:"stats"`
	Trace     *obs.Summary `json:"trace,omitempty"` // present when the request asked for trace=1
}

// errorLine terminates a stream that failed after rows were already sent.
type errorLine struct {
	Error     string       `json:"error"`
	RequestID string       `json:"request_id"`
	Rows      int          `json:"rows"`
	Trace     *obs.Summary `json:"trace,omitempty"`
}

// statsLine is the wire form of the per-request evaluation counters.
type statsLine struct {
	TuplesAdded  int `json:"tuples_added"`
	TuplesPopped int `json:"tuples_popped"`
	VisitedSize  int `json:"visited_size"`
	Phases       int `json:"phases"`
	Deferred     int `json:"deferred"`
	Reinjected   int `json:"reinjected"`
	// MemPeakBytes is the execution's accounted peak resident footprint;
	// SpillEscalations counts soft-watermark crossings that tightened its
	// spill thresholds.
	MemPeakBytes     int64 `json:"mem_peak_bytes,omitempty"`
	SpillEscalations int   `json:"spill_escalations,omitempty"`
	// Backend reports which evaluation engine ran: "ranked", "bulk", or
	// "mixed" when a multi-conjunct plan split.
	Backend string `json:"backend,omitempty"`
	// Parallelism is the execution's resolved worker count (absent when
	// serial); Shards counts the shard evaluators and bulk workers that
	// actually engaged; MergeWaitMs is time the consumer spent waiting on
	// worker output in the ordered merges.
	Parallelism int     `json:"parallelism,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	MergeWaitMs float64 `json:"merge_wait_ms,omitempty"`
	// Request-level latency phases: admission → first worker turn, plan-cache
	// lookup (including compilation on a miss), admission → first row, and
	// time spent on spill-file I/O.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	CompileMs   float64 `json:"compile_ms,omitempty"`
	TTFRMs      float64 `json:"ttfr_ms,omitempty"`
	SpillIOMs   float64 `json:"spill_io_ms,omitempty"`
}

func toStatsLine(s omega.Stats) statsLine {
	par := s.Parallelism
	if par <= 1 {
		par = 0 // serial: keep the done line free of noise
	}
	return statsLine{
		TuplesAdded:      s.TuplesAdded,
		TuplesPopped:     s.TuplesPopped,
		VisitedSize:      s.VisitedSize,
		Phases:           s.Phases,
		Deferred:         s.Deferred,
		Reinjected:       s.Reinjected,
		MemPeakBytes:     s.MemPeakBytes,
		SpillEscalations: s.SpillEscalations,
		Backend:          s.Backend,
		Parallelism:      par,
		Shards:           s.Shards,
		MergeWaitMs:      float64(s.MergeWaitNanos) / 1e6,
		QueueWaitMs:      float64(s.QueueWaitNanos) / 1e6,
		CompileMs:        float64(s.CompileNanos) / 1e6,
		TTFRMs:           float64(s.TTFRNanos) / 1e6,
		SpillIOMs:        float64(s.SpillIONanos) / 1e6,
	}
}

// handleQuery evaluates one query and streams its answers.
//
// Parameters (query string or form body) are the canonical knob registry
// (omega.ExecOptions.ApplyParams) — this handler owns no per-knob parsing of
// its own, and an invalid value is rejected with one 400 shape naming the
// knob ("invalid <knob> <value> (<what a valid value looks like>)"):
//
//	q        — the CRP query text, e.g. (?X) <- APPROX (UK, locatedIn-, ?X)   [required]
//	mode     — exact | approx | relax | flex; overrides every conjunct's mode
//	limit    — maximum rows to return
//	maxdist  — maximum total answer distance
//	maxtuples— per-request tuple budget override
//	softmem  — soft memory watermark in bytes (degrade to disk spilling)
//	hardmem  — hard memory watermark in bytes (abort with 507)
//	parallel — worker count for this request (alias: parallelism); emission
//	           stays byte-identical to serial
//	timeout  — per-request deadline, Go duration syntax (e.g. 2s, 500ms)
//	backend  — auto | ranked | bulk; evaluation engine (default auto)
//
// The response is application/x-ndjson: one JSON object per answer row
// ({"vars":[…],"labels":[…],"nodes":[…],"dist":n}, see encode.go), in
// non-decreasing distance, then a final object — either {"done":true,...}
// with the evaluation counters (and "degraded":true when degraded-mode
// admission clamped the request) or {"error":...} if the stream failed
// mid-flight. Rows are written and flushed whenever they would otherwise wait
// (see rowWriter): the first row at once, then every time the engine goes
// back to work for the next one — after each answer of a ranked APPROX/RELAX
// stream, in ~32 KiB writes through an exhaustive scan. A client that stops
// reading is cut off when a write outlasts the stall budget or the request's
// deadline. Failures before the first row map to HTTP status
// codes: 400 (bad query/parameters), 503 + Retry-After (admission control —
// scheduler or memory broker — or shutdown), 504 (deadline or watchdog stall
// before any row), 507 (hard memory watermark crossed, or aborted as the
// broker's pressure victim), 500 (recovered panic, disk fault, or other
// internal failure — the request died, the server keeps serving).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, maxLimit int) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
		return
	}

	// Every request gets an ID — the client's (sanitized: hostile input must
	// not break log lines) or a fresh one — echoed in the response header,
	// the done/error line and every log line, so one request can be chased
	// across client, server log and trace.
	reqStart := time.Now()
	reqID := obs.SanitizeRequestID(r.Header.Get("X-Request-Id"))
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)

	status := http.StatusOK
	var backendUsed string
	var queueWait, compileDur, ttfrDur time.Duration
	defer func() {
		s.metrics.observeRequest(status, backendUsed, time.Since(reqStart), queueWait, compileDur, ttfrDur)
	}()
	fail := func(code int, msg string) {
		status = code
		http.Error(w, msg, code)
	}

	if err := r.ParseForm(); err != nil {
		fail(http.StatusBadRequest, "malformed form body")
		return
	}
	text := r.Form.Get("q")
	if text == "" {
		fail(http.StatusBadRequest, "missing q parameter")
		return
	}
	// The registry owns all knob parsing: the server pre-seeds its configured
	// defaults, present parameters override them through the shared
	// validators, and any invalid value surfaces as a *omega.KnobError whose
	// message names the knob.
	eo := omega.ExecOptions{
		Pool:         s.pool,
		SoftMemBytes: s.softMem,
		HardMemBytes: s.hardMem,
		Parallelism:  s.parallel,
	}
	if err := eo.ApplyParams(r.Form); err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if maxLimit > 0 && (eo.Limit == 0 || eo.Limit > maxLimit) {
		eo.Limit = maxLimit
	}
	// The default deadline is applied here, not by the scheduler, so the
	// response writer bounds its writes by it too.
	ctx := r.Context()
	timeout := s.timeout
	if tv := r.Form.Get("timeout"); tv != "" {
		d, err := omega.ParseTimeout(tv)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		timeout = d
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// trace=1 opts this request into span recording: the trace rides the
	// context (queue/stream/quantum spans from the scheduler) and the exec
	// options (exec/conjunct/bulk_index/psi_phase spans from the engine), and
	// the summary tree comes back on the done line. Untraced requests keep tr
	// nil, which every instrumented site treats as a single nil check.
	var tr *obs.Trace
	if r.FormValue("trace") == "1" {
		tr = obs.NewTrace(reqID)
		ctx = obs.WithTrace(ctx, tr)
	}

	planSpan := obs.NoSpan
	if tr != nil {
		planSpan = tr.Start(obs.Root, obs.SpanPlan)
	}
	planStart := time.Now()
	pq, hit, err := s.cache.Lookup(text, eo.Mode)
	compileDur = time.Since(planStart)
	if tr != nil {
		attr := int64(0)
		if hit {
			attr = 1
		}
		tr.SetAttr(planSpan, "cache_hit", attr)
		tr.End(planSpan)
	}
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}

	admSpan := obs.NoSpan
	if tr != nil {
		admSpan = tr.Start(obs.Root, obs.SpanAdmission)
	}

	// Under sustained overload the scheduler flags degraded mode and new
	// requests run with tightened defaults: clamped row limits and distance
	// caps keep per-request work small so the backlog drains, and the done
	// line carries the flag so clients know their answer may be partial.
	degraded := s.sched.Degraded()
	if degraded {
		if s.degLimit > 0 && (eo.Limit == 0 || eo.Limit > s.degLimit) {
			eo.Limit = s.degLimit
		}
		if s.degDist > 0 && (eo.MaxDist == 0 || eo.MaxDist > int32(s.degDist)) {
			eo.MaxDist = int32(s.degDist)
		}
	}

	// The cancel-cause wrapper is the memory broker's abort lever: the
	// victim monitor cancels with omega.ErrMemBudget as the cause, which
	// the evaluator maps back onto the typed error (poisoning its pooled
	// state). The gauge is always created — even without a broker it carries
	// the per-request watermarks and feeds mem_peak_bytes in the done line.
	ctx, cancelCause := context.WithCancelCause(ctx)
	defer cancelCause(nil)
	gauge := omega.NewMemGauge(eo.SoftMemBytes, eo.HardMemBytes)
	if s.broker != nil {
		lease, err := s.broker.Reserve(gauge, cancelCause, s.sched.RetryAfter())
		if err != nil {
			if tr != nil {
				tr.End(admSpan)
			}
			s.setRetryAfter(w)
			fail(http.StatusServiceUnavailable, err.Error())
			return
		}
		defer s.broker.Release(lease)
	}
	if tr != nil {
		if degraded {
			tr.SetAttr(admSpan, "degraded", 1)
		}
		tr.End(admSpan)
	}

	eo.Mem = gauge
	eo.Trace = tr

	start := time.Now()
	rw := newRowWriter(ctx, w, s.metrics, s.stall)
	defer rw.release()

	res, err := s.sched.Stream(ctx,
		func(ctx context.Context) (*omega.Rows, error) { return pq.Exec(ctx, eo) },
		rw.deliver)

	elapsed := time.Since(start)
	res.Stats.CompileNanos = int64(compileDur)
	backendUsed = res.Stats.Backend
	queueWait = time.Duration(res.Stats.QueueWaitNanos)
	ttfrDur = time.Duration(res.Stats.TTFRNanos)

	// The root request span closes here — the stream is over either way — so
	// a summary rendered for the done line or the slow-query log has a
	// settled duration.
	var summary *obs.Summary
	if tr != nil {
		tr.End(obs.Root)
		summary = tr.Summary()
	}
	s.logSlowQuery(reqID, text, res, err, elapsed, summary)

	if err != nil {
		s.logf("serve: query %s failed after %d rows in %.1fms: %v", reqID, res.Rows, float64(elapsed.Nanoseconds())/1e6, err)
		if errors.Is(err, omega.ErrMemBudget) && s.broker != nil {
			// Counted here (not in the broker's kill path) so hard-watermark
			// aborts and victim kills both land in budget_aborts.
			s.broker.NoteBudgetAbort()
		}
		if rw.wrote {
			// The status line is gone; report the failure in-band, behind
			// the rows still pending (a no-op once a write has failed).
			line, _ := json.Marshal(errorLine{Error: err.Error(), RequestID: reqID, Rows: res.Rows, Trace: summary})
			_ = rw.finish(line)
			return
		}
		switch {
		case errors.Is(err, ErrOverloaded):
			s.setRetryAfter(w)
			fail(http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ErrSchedulerClosed):
			fail(http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ErrStalled):
			// The watchdog aborted a stuck execution; like a deadline, the
			// server gave up on the upstream work.
			fail(http.StatusGatewayTimeout, err.Error())
		case errors.Is(err, omega.ErrDeadline):
			fail(http.StatusGatewayTimeout, err.Error())
		case errors.Is(err, omega.ErrCanceled):
			// The client is gone; nothing useful to write.
			status = 499 // nginx's client-closed-request code, metrics only
		case errors.Is(err, omega.ErrMemBudget):
			// The execution crossed its hard memory watermark, or the broker
			// picked it as the pressure victim: the server shed the request's
			// memory, not the request's correctness — retrying with a higher
			// budget (or after load subsides) starts fresh.
			fail(http.StatusInsufficientStorage, err.Error())
		case errors.Is(err, omega.ErrTupleBudget):
			fail(http.StatusUnprocessableEntity, err.Error())
		default:
			// ErrInternal (recovered panics), ErrSpill (disk faults) and
			// anything unclassified: the request failed, the server did not.
			fail(http.StatusInternalServerError, err.Error())
		}
		return
	}
	line, _ := json.Marshal(doneLine{Done: true, RequestID: reqID, Rows: res.Rows, ElapsedMs: float64(elapsed.Nanoseconds()) / 1e6, Degraded: degraded, Stats: toStatsLine(res.Stats), Trace: summary})
	_ = rw.finish(line)
	s.logf("serve: %s %d rows in %.1fms (backend=%s popped=%d deferred=%d reinjected=%d phases=%d queue_wait=%.1fms ttfr=%.1fms)",
		reqID, res.Rows, float64(elapsed.Nanoseconds())/1e6, res.Stats.Backend,
		res.Stats.TuplesPopped, res.Stats.Deferred, res.Stats.Reinjected, res.Stats.Phases,
		float64(res.Stats.QueueWaitNanos)/1e6, float64(res.Stats.TTFRNanos)/1e6)
}

// setRetryAfter sets the back-off hint of a 503 admission rejection (the
// scheduler's or the memory broker's). Retry-After has one-second
// granularity; round up so a sub-second hint never becomes "retry
// immediately".
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := max(int(math.Ceil(s.sched.RetryAfter().Seconds())), 1)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// slowQueryLine is the structured slow-query log record (one JSON object per
// slow request, successful or failed).
type slowQueryLine struct {
	RequestID string       `json:"request_id"`
	Query     string       `json:"query"`
	Error     string       `json:"error,omitempty"`
	Rows      int          `json:"rows"`
	ElapsedMs float64      `json:"elapsed_ms"`
	Stats     statsLine    `json:"stats"`
	Trace     *obs.Summary `json:"trace,omitempty"`
}

// logSlowQuery emits the structured slow-query record when the request's
// end-to-end latency reached the configured threshold.
func (s *Server) logSlowQuery(reqID, text string, res Result, err error, elapsed time.Duration, summary *obs.Summary) {
	if s.slowQuery <= 0 || elapsed < s.slowQuery {
		return
	}
	line := slowQueryLine{
		RequestID: reqID,
		Query:     text,
		Rows:      res.Rows,
		ElapsedMs: float64(elapsed.Nanoseconds()) / 1e6,
		Stats:     toStatsLine(res.Stats),
		Trace:     summary,
	}
	if err != nil {
		line.Error = err.Error()
	}
	b, jerr := json.Marshal(line)
	if jerr != nil {
		return
	}
	s.logf("serve: slow query %s", b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// runtimeStats is the /statsz "runtime" section: the Go heap figures an
// operator correlates with the broker's accounted bytes when diagnosing
// memory pressure.
type runtimeStats struct {
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	NumGC          uint32  `json:"num_gc"`
	LastGCPauseMs  float64 `json:"last_gc_pause_ms"`
}

func readRuntimeStats() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := runtimeStats{
		HeapAllocBytes: ms.HeapAlloc,
		HeapInuseBytes: ms.HeapInuse,
		NumGC:          ms.NumGC,
	}
	if ms.NumGC > 0 {
		rs.LastGCPauseMs = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	return rs
}

// buildSection is the /statsz "build" section: what is running and since
// when, mirroring the omega_build_info and process-start metrics.
type buildSection struct {
	Version   string    `json:"version"`
	Revision  string    `json:"revision"`
	GoVersion string    `json:"go_version"`
	StartTime time.Time `json:"start_time"`
}

// statszPayload is the /statsz response body.
type statszPayload struct {
	Scheduler SchedulerStats             `json:"scheduler"`
	PlanCache CacheStats                 `json:"plan_cache"`
	Pool      *omega.PoolStats           `json:"pool,omitempty"`
	MemBroker *BrokerStats               `json:"mem_broker,omitempty"`
	Faults    map[string]fault.SiteStats `json:"faults,omitempty"`
	Build     buildSection               `json:"build"`
	Runtime   runtimeStats               `json:"runtime"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	version, revision, goVersion := buildInfo()
	payload := statszPayload{
		Scheduler: s.sched.Stats(),
		PlanCache: s.cache.Stats(),
		Faults:    fault.Stats(),
		Build: buildSection{
			Version:   version,
			Revision:  revision,
			GoVersion: goVersion,
			StartTime: s.metrics.start,
		},
		Runtime: readRuntimeStats(),
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		payload.Pool = &ps
	}
	if s.broker != nil {
		bs := s.broker.Stats()
		payload.MemBroker = &bs
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}
