// Package serve is Omega's concurrent serving subsystem: it turns the
// compile-once / execute-many API (Engine.Prepare + PreparedQuery.Exec) into
// a high-QPS front-end. Three pieces compose:
//
//   - an admission-controlled Scheduler that drains many concurrent
//     executions fairly over a bounded worker pool, rejecting excess load
//     with a typed ErrOverloaded instead of queueing without bound;
//   - a PlanCache, an LRU of prepared queries keyed by query text + mode, so
//     a repeated query never pays parse/compile again;
//   - a Server, an HTTP front-end that streams answers as NDJSON rows in
//     ranked order as they are produced, with per-request deadlines, budgets
//     and deterministic resource release on every exit path.
//
// The enumeration view of RPQ evaluation motivates the shape: answers stream
// with small per-answer delay after a one-off setup, so the serving layer's
// job is to amortise the setup (plan cache, evaluator-state pool) and to
// multiplex many in-flight enumerations without letting any one of them
// monopolise the workers (the scheduler's row quantum).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"omega"
	"omega/internal/fault"
	"omega/internal/obs"
)

// ErrOverloaded is reported (wrapped) when admission control rejects a
// request because the scheduler already has its maximum number of requests
// in flight. Callers should back off and retry; errors.As with
// *OverloadedError recovers the suggested delay.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrSchedulerClosed is reported for requests submitted after Close.
var ErrSchedulerClosed = errors.New("serve: scheduler closed")

// ErrInternal is reported (wrapped) when a request died of a panic inside
// evaluation or row encoding. The worker recovers the panic, aborts the
// execution (discarding its pooled state — see omega.Rows.Abort) and keeps
// serving; only the panicking request observes the error (HTTP 500).
var ErrInternal = errors.New("serve: internal error")

// ErrStalled is reported (wrapped) when the stuck-query watchdog aborts a
// request whose scheduling turn made no progress for longer than the
// configured StallBudget (HTTP 504). errors.As with *StalledError recovers
// the budget that was exceeded.
var ErrStalled = errors.New("serve: query stalled")

// StalledError carries the watchdog context of an abort. It wraps
// ErrStalled, so errors.Is(err, ErrStalled) holds.
type StalledError struct {
	// Budget is the stall budget the request exceeded.
	Budget time.Duration
}

func (e *StalledError) Error() string {
	return fmt.Sprintf("serve: query stalled (no progress for more than %s)", e.Budget)
}

func (e *StalledError) Unwrap() error { return ErrStalled }

// OverloadedError carries the admission-control context of a rejection. It
// wraps ErrOverloaded, so errors.Is(err, ErrOverloaded) holds.
type OverloadedError struct {
	// InFlight is the number of admitted requests at rejection time.
	InFlight int
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%d requests in flight, retry after %s)", e.InFlight, e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// SchedulerConfig sizes a Scheduler. The zero value gets sensible defaults.
type SchedulerConfig struct {
	// Workers is the number of concurrently executing requests (default 4).
	// One worker drives one execution at a time, for one quantum of rows.
	Workers int
	// Queue is the number of admitted requests allowed to wait beyond the
	// ones being executed (default 2×Workers; negative means no waiting
	// queue). Admission rejects with ErrOverloaded once Workers+Queue
	// requests are in flight.
	Queue int
	// Quantum is the number of rows a request streams per scheduling turn
	// (default 64), pulled in batches of whatever the engine has ready.
	// Smaller quanta interleave concurrent requests more finely; larger ones
	// reduce switching overhead.
	Quantum int
	// RetryAfter is the back-off hint attached to ErrOverloaded rejections
	// (default 1s).
	RetryAfter time.Duration
	// StallBudget, when positive, arms the stuck-query watchdog: a request
	// whose current scheduling turn has made no progress (no row, no
	// completion) for longer than the budget is aborted with ErrStalled. The
	// budget is per turn, not per request — time spent waiting in the run
	// queue between turns never counts, so a long queue cannot stall anyone.
	// Cancellation cannot reach a sink blocked in a socket write; a sink
	// bounds its own writes and reports the timeout as ErrStalled, which the
	// scheduler counts like a watchdog abort.
	StallBudget time.Duration
	// DegradeAfter, when positive, arms degraded-mode detection: the
	// scheduler reports Degraded() == true while the last DegradeAfter
	// admission rejections all happened within DegradeWindow. The serving
	// layer uses the flag to tighten per-request defaults under sustained
	// overload instead of only rejecting with 503.
	DegradeAfter int
	// DegradeWindow is the sliding window for DegradeAfter (default 10s).
	DegradeWindow time.Duration
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	// Queue is resolved by queueSlots, not rewritten here: 0 must keep
	// meaning "default" and negative "none" even if defaults are applied
	// more than once (the Server defaults the config before handing it to
	// NewScheduler, which defaults it again).
	if c.Quantum <= 0 {
		c.Quantum = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DegradeAfter > 0 && c.DegradeWindow <= 0 {
		c.DegradeWindow = 10 * time.Second
	}
	return c
}

// queueSlots resolves the Queue field: 0 = default (2×Workers), negative =
// no waiting queue.
func (c SchedulerConfig) queueSlots() int {
	switch {
	case c.Queue == 0:
		return 2 * c.Workers
	case c.Queue < 0:
		return 0
	default:
		return c.Queue
	}
}

// SchedulerStats is a snapshot of the scheduler's counters.
type SchedulerStats struct {
	Submitted int64 `json:"submitted"` // admitted requests
	Rejected  int64 `json:"rejected"`  // admission rejections (ErrOverloaded)
	Completed int64 `json:"completed"` // requests finished without error
	Failed    int64 `json:"failed"`    // requests finished with an error (incl. cancellation)
	Panics    int64 `json:"panics"`    // panics recovered by workers (ErrInternal)
	Stalled   int64 `json:"stalled"`   // requests aborted by the watchdog (ErrStalled)
	InFlight  int   `json:"in_flight"` // admitted, not yet finished
	Queued    int   `json:"queued"`    // admitted, waiting for a worker turn
	Degraded  bool  `json:"degraded"`  // degraded-mode admission in effect
	// GapP99Ms is the 99th-percentile inter-row gap (time between successive
	// rows delivered to a sink, including queue waits between turns) over the
	// scheduler's lifetime, in milliseconds; 0 until enough rows have flowed.
	GapP99Ms float64 `json:"gap_p99_ms"`
}

// gapBuckets sizes the inter-row gap histogram: bucket i counts gaps below
// 2^i microseconds, so the top bucket covers everything above ~2.2 hours.
const gapBuckets = 34

// Sink receives a request's rows a batch at a time, in ranked order, possibly
// across several worker turns but never concurrently. The rows alias the
// execution's batch storage (see omega.Rows.NextBatch): a sink encodes or
// copies them before it returns. wait reports that whatever the sink holds
// would otherwise sit on the server while another request runs, so a sink
// that buffers pushes its buffer out: it is set only on the empty call that
// ends a turn when another request gets the worker. While the request's own
// execution works, a sink that buffers learns when to push through the
// execution's idle hook (omega.ExecOptions.Idle), which runs on the same
// worker, between deliveries. A write made there has no one to report a
// failure to, so the stream's end is one more empty call, without wait: the
// sink returns such a failure then, and it becomes the request's outcome.
type Sink func(rows []omega.Row, wait bool) error

// task is one admitted request, cooperatively executed in row quanta.
type task struct {
	ctx   context.Context
	start func(ctx context.Context) (*omega.Rows, error)
	sink  Sink

	rows  *omega.Rows
	n     int
	stats omega.Stats
	err   error
	done  chan struct{}

	// Watchdog state. cancel aborts the execution's context with a cause;
	// quantumStart and stalled are guarded by the scheduler mutex.
	cancel       context.CancelCauseFunc
	quantumStart time.Time
	stalled      bool

	// lastRow / gaps track inter-row latency, one clock reading per batch:
	// the batch's first row takes the gap since the previous batch, the rows
	// that came with it count as no gap at all. They are touched only by the
	// worker currently running the task (the scheduler mutex orders worker
	// hand-offs between turns); gaps is merged into the scheduler histogram
	// at the end of every turn.
	lastRow time.Time
	gaps    [gapBuckets]int64

	// Request-level timing (client-visible: measured from admission, unlike
	// the engine-level figures measured from Exec). ttfr is zero until the
	// first row reaches the sink.
	submitted time.Time
	queueWait time.Duration
	ttfr      time.Duration

	// Tracing: tr is the request's trace from the context (nil when
	// untraced); the spans are NoSpan until their phase opens.
	tr         *obs.Trace
	queueSpan  obs.SpanID
	streamSpan obs.SpanID
}

// Result summarises one completed request.
type Result struct {
	// Rows is the number of rows delivered to the sink.
	Rows int
	// Stats carries the execution's evaluation counters (zero when the
	// request failed before executing).
	Stats omega.Stats
}

// Scheduler fairly drains many concurrent query executions over a bounded
// worker pool. Each admitted request is executed in quanta of rows: a worker
// picks the request at the head of the run queue, moves one quantum to the
// request's sink in batches, and re-queues it at the tail, so every in-flight
// request makes progress regardless of how long its neighbours run — the
// scheduling analogue of ranked emission's small per-answer delay. Admission
// is bounded: beyond Workers+Queue in-flight requests, Stream rejects
// immediately with ErrOverloaded rather than building an unbounded backlog.
type Scheduler struct {
	cfg SchedulerConfig

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []*task            // run queue (round-robin tail re-queue)
	active   map[*task]struct{} // tasks currently mid-quantum (watchdog scan set)
	rejects  []time.Time        // last cfg.DegradeAfter rejection times
	gapHist  [gapBuckets]int64  // lifetime inter-row gap histogram
	gapTotal int64              // total gaps recorded
	inFlight int                // admitted and not finished (queued + mid-quantum)
	running  int                // workers currently executing a quantum
	closed   bool
	stats    SchedulerStats

	wg        sync.WaitGroup // workers
	watchWG   sync.WaitGroup // watchdog
	watchStop chan struct{}
	watchOnce sync.Once
}

// NewScheduler starts a scheduler with cfg.Workers worker goroutines (plus a
// watchdog goroutine when StallBudget is set). Close drains and stops them.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults(), active: make(map[*task]struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.watchStop = make(chan struct{})
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.StallBudget > 0 {
		s.watchWG.Add(1)
		go s.watchdog()
	}
	return s
}

// Stream admits one request and blocks until it finishes: start is called on
// a worker (once the request's first turn comes) to begin the execution, and
// sink receives every row in ranked order (see Sink). The returned error is
// nil on normal exhaustion; an admission rejection surfaces as ErrOverloaded
// (with *OverloadedError context) before start ever runs; cancellation and
// deadline surface as omega.ErrCanceled / omega.ErrDeadline. Whatever the
// exit path, the execution's Rows is closed before Stream returns — that is
// the deterministic-release guarantee the HTTP layer relies on.
func (s *Scheduler) Stream(ctx context.Context, start func(ctx context.Context) (*omega.Rows, error), sink Sink) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The cancel-cause wrapper is the watchdog's abort lever: cancelling with
	// a cause interrupts the evaluator mid-iteration (it polls its context
	// inside the pop loop), and the worker maps the resulting cancellation
	// back onto ErrStalled.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	t := &task{
		ctx: ctx, start: start, sink: sink, cancel: cancel,
		done:      make(chan struct{}),
		submitted: time.Now(),
		queueSpan: obs.NoSpan, streamSpan: obs.NoSpan,
	}
	if tr := obs.FromContext(ctx); tr != nil {
		t.tr = tr
		t.queueSpan = tr.Start(obs.Root, obs.SpanQueue)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Result{}, ErrSchedulerClosed
	}
	if s.inFlight >= s.cfg.Workers+s.cfg.queueSlots() {
		s.stats.Rejected++
		s.noteRejection(time.Now())
		n := s.inFlight
		s.mu.Unlock()
		return Result{}, &OverloadedError{InFlight: n, RetryAfter: s.cfg.RetryAfter}
	}
	s.inFlight++
	s.stats.Submitted++
	s.ready = append(s.ready, t)
	s.cond.Signal()
	s.mu.Unlock()

	<-t.done
	return Result{Rows: t.n, Stats: t.stats}, t.err
}

// worker executes one quantum at a time off the head of the run queue. The
// batch buffer is the worker's: rows live only until the sink returns, so one
// buffer serves every request the worker ever runs.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	batch := make([]omega.Row, s.cfg.Quantum)
	for {
		s.mu.Lock()
		for len(s.ready) == 0 && !(s.closed && s.inFlight == 0) {
			s.cond.Wait()
		}
		if len(s.ready) == 0 {
			// Closed and fully drained.
			s.mu.Unlock()
			return
		}
		t := s.ready[0]
		copy(s.ready, s.ready[1:])
		s.ready = s.ready[:len(s.ready)-1]
		s.running++
		t.quantumStart = time.Now()
		s.active[t] = struct{}{}
		s.mu.Unlock()

		finished := s.runQuantum(t, batch)

		s.mu.Lock()
		s.running--
		delete(s.active, t)
		for i, c := range t.gaps {
			if c != 0 {
				s.gapHist[i] += c
				s.gapTotal += c
				t.gaps[i] = 0
			}
		}
		if finished {
			// A watchdog abort surfaces from the evaluator as a context
			// cancellation; report it as the typed stall it really is. A sink
			// whose write timed out reports the stall itself — the watchdog's
			// cancellation cannot reach a blocked write — and is counted here
			// unless the watchdog got to the turn first.
			if t.stalled && t.err != nil &&
				(errors.Is(t.err, omega.ErrCanceled) || errors.Is(t.err, omega.ErrDeadline)) {
				t.err = &StalledError{Budget: s.cfg.StallBudget}
			} else if !t.stalled && errors.Is(t.err, ErrStalled) {
				t.stalled = true
				s.stats.Stalled++
			}
			// Stamp the request-level timings into the stats snapshot the
			// caller receives. The scheduler's TTFR (admission → sink) replaces
			// the engine's (Exec → pop) because it is what the client saw.
			t.stats.QueueWaitNanos = int64(t.queueWait)
			if t.ttfr > 0 {
				t.stats.TTFRNanos = int64(t.ttfr)
			}
			if t.tr != nil {
				t.tr.End(t.queueSpan) // no-op unless still queued (pre-start failure)
				t.tr.End(t.streamSpan)
			}
			s.inFlight--
			if t.err != nil {
				s.stats.Failed++
			} else {
				s.stats.Completed++
			}
			if s.closed && s.inFlight == 0 {
				s.cond.Broadcast() // wake every worker so they can exit
			}
		} else {
			s.ready = append(s.ready, t)
			s.cond.Signal()
		}
		s.mu.Unlock()
		if finished {
			close(t.done)
		}
	}
}

// watchdog periodically scans the tasks currently mid-quantum and aborts any
// whose turn has made no progress for longer than StallBudget. It keeps
// running while Close drains, so a stuck in-flight request cannot wedge the
// drain.
func (s *Scheduler) watchdog() {
	defer s.watchWG.Done()
	interval := s.cfg.StallBudget / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		s.mu.Lock()
		for t := range s.active {
			if !t.stalled && now.Sub(t.quantumStart) > s.cfg.StallBudget {
				t.stalled = true
				s.stats.Stalled++
				t.cancel(ErrStalled)
			}
		}
		s.mu.Unlock()
	}
}

// noteRejection records an admission rejection for degraded-mode detection.
// Caller holds s.mu. Only the last DegradeAfter timestamps matter: the mode
// is on while all of them fit inside DegradeWindow.
func (s *Scheduler) noteRejection(now time.Time) {
	if s.cfg.DegradeAfter <= 0 {
		return
	}
	s.rejects = append(s.rejects, now)
	if len(s.rejects) > s.cfg.DegradeAfter {
		s.rejects = s.rejects[len(s.rejects)-s.cfg.DegradeAfter:]
	}
}

// degraded reports whether degraded-mode admission is in effect. Caller
// holds s.mu.
func (s *Scheduler) degraded(now time.Time) bool {
	return s.cfg.DegradeAfter > 0 &&
		len(s.rejects) >= s.cfg.DegradeAfter &&
		now.Sub(s.rejects[0]) <= s.cfg.DegradeWindow
}

// Degraded reports whether the scheduler has seen sustained overload (see
// SchedulerConfig.DegradeAfter): the serving layer tightens per-request
// defaults while it holds.
func (s *Scheduler) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded(time.Now())
}

// recordGaps buckets a batch of n rows delivered at now into the task-local
// histogram: one real gap, then n-1 rows that arrived with no gap between
// them, added to the lowest bucket in one step.
func (t *task) recordGaps(now time.Time, n int) {
	if !t.lastRow.IsZero() {
		us := now.Sub(t.lastRow).Microseconds()
		idx := bits.Len64(uint64(us))
		if idx >= gapBuckets {
			idx = gapBuckets - 1
		}
		t.gaps[idx]++
	}
	t.gaps[0] += int64(n - 1)
	t.lastRow = now
}

// gapP99Locked computes the 99th-percentile inter-row gap from the histogram
// (bucket upper bounds, so the estimate rounds up). Caller holds s.mu.
func (s *Scheduler) gapP99Locked() float64 {
	if s.gapTotal == 0 {
		return 0
	}
	// Smallest bucket whose cumulative count covers 99% of all gaps.
	need := (s.gapTotal*99 + 99) / 100
	var cum int64
	for i, c := range s.gapHist {
		cum += c
		if cum >= need {
			return float64(uint64(1)<<uint(i)) / 1000 // 2^i µs in ms
		}
	}
	return float64(uint64(1)<<uint(gapBuckets-1)) / 1000
}

// runQuantum advances t by one scheduling turn and reports whether the
// request finished. On every finishing path the execution's Rows has been
// closed (and its Stats captured) before the caller observes completion.
//
// A panic anywhere in the turn — evaluation, row encoding, a poisoned sink —
// is recovered here: the request fails with a typed ErrInternal, its
// execution is aborted (so pooled evaluator state is discarded, not
// recycled), and the worker goes back to serving its neighbours. One bad
// request must never take the process, the worker, or a future request's
// pooled state with it.
func (s *Scheduler) runQuantum(t *task, batch []omega.Row) (finished bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err := fmt.Errorf("%w: recovered panic: %v", ErrInternal, r)
		t.err = err
		s.abortRows(t, err)
		s.mu.Lock()
		s.stats.Panics++
		s.mu.Unlock()
		finished = true
	}()
	if fault.Enabled() {
		// serve.quantum is the chaos hook for worker failures: an error
		// action simulates an internal fault, a panic action exercises the
		// recovery path above.
		if err := fault.Inject("serve.quantum"); err != nil {
			t.err = fmt.Errorf("%w: %v", ErrInternal, err)
			s.abortRows(t, t.err)
			return true
		}
	}
	if t.rows == nil {
		// First turn: honour a cancellation that happened while queued, then
		// start the execution. Starting lazily keeps evaluator state bounded
		// by the worker+queue populations, not by the submission rate.
		if err := t.ctx.Err(); err != nil {
			t.err = mapCtxErr(err)
			return true
		}
		t.queueWait = time.Since(t.submitted)
		if t.tr != nil {
			t.tr.End(t.queueSpan)
			t.streamSpan = t.tr.Start(obs.Root, obs.SpanStream)
		}
		rows, err := t.start(t.ctx)
		if err != nil {
			t.err = err
			return true
		}
		t.rows = rows
		t.lastRow = time.Now() // first gap = time to first row
	}
	qSpan, rowsBefore := obs.NoSpan, t.n
	if t.tr != nil {
		qSpan = t.tr.Start(t.streamSpan, obs.SpanQuantum)
	}
	// finish ends the request: err (nil on exhaustion) becomes its outcome.
	finish := func(err error) bool {
		t.err = err
		t.endQuantumSpan(qSpan, rowsBefore)
		s.finishRows(t)
		return true
	}
	for left := len(batch); left > 0; {
		n, err := t.rows.NextBatch(batch[:left])
		if n == 0 {
			// The stream is over. A write the sink made from the idle hook
			// may have failed since its last delivery — and canceled the
			// request with it — so the sink has the last word.
			if serr := t.sink(nil, false); serr != nil {
				err = serr
			}
			return finish(err)
		}
		t.recordGaps(time.Now(), n)
		left -= n
		if err := t.sink(batch[:n], false); err != nil {
			return finish(err)
		}
		if t.n == 0 {
			// Client-visible time to first row: admission to sink delivery,
			// including the queue wait the engine-level figure cannot see.
			t.ttfr = time.Since(t.submitted)
		}
		t.n += n
	}
	// The turn is over. If the worker goes to another request now, nothing
	// may stay behind in the sink's buffer while it does.
	if s.hasRunnable() {
		if err := t.sink(nil, true); err != nil {
			return finish(err)
		}
	}
	t.endQuantumSpan(qSpan, rowsBefore)
	return false // quantum exhausted; re-queue for the next turn
}

// hasRunnable reports whether another request is waiting for a worker.
func (s *Scheduler) hasRunnable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ready) > 0
}

// endQuantumSpan closes one turn's quantum span, stamping the rows it
// delivered. Safe when untraced (tr nil, sp NoSpan).
func (t *task) endQuantumSpan(sp obs.SpanID, rowsBefore int) {
	if t.tr == nil {
		return
	}
	t.tr.SetAttr(sp, "rows", int64(t.n-rowsBefore))
	t.tr.End(sp)
}

// finishRows captures the execution's counters and releases it.
func (s *Scheduler) finishRows(t *task) {
	t.stats = t.rows.Stats()
	_ = t.rows.Close()
}

// abortRows terminates t's execution after a panic or injected internal
// fault, poisoning its pooled state. The execution is the very thing that
// just blew up, so stats capture and abort both run under a recover of their
// own — a second panic must not escape the worker either.
func (s *Scheduler) abortRows(t *task, err error) {
	if t.rows == nil {
		return
	}
	defer func() { _ = recover() }()
	t.rows.Abort(err)
	t.stats = t.rows.Stats()
}

// mapCtxErr maps a context error onto the engine's typed errors, so a
// request canceled while still queued reports the same error a running one
// would.
func mapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return omega.ErrDeadline
	}
	return omega.ErrCanceled
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.InFlight = s.inFlight
	st.Queued = len(s.ready)
	st.Degraded = s.degraded(time.Now())
	st.GapP99Ms = s.gapP99Locked()
	return st
}

// GapSnapshot copies the lifetime inter-row gap histogram for metrics
// exposition. counts[i] holds gaps of less than 2^i microseconds (the top
// bucket is unbounded); total is the number of gaps recorded.
func (s *Scheduler) GapSnapshot() (counts []int64, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts = make([]int64, gapBuckets)
	copy(counts, s.gapHist[:])
	return counts, s.gapTotal
}

// RetryAfter returns the back-off hint attached to overload rejections.
func (s *Scheduler) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Close stops admission, drains every in-flight request to completion and
// stops the workers. It is idempotent and safe to call concurrently with
// Stream (late submissions report ErrSchedulerClosed). The watchdog keeps
// running until the drain completes, so a stuck request cannot wedge Close:
// it gets aborted with ErrStalled like any other.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.watchOnce.Do(func() { close(s.watchStop) })
	s.watchWG.Wait()
	return nil
}
