// Package serve is Omega's concurrent serving subsystem: it turns the
// compile-once / execute-many API (Engine.Prepare + PreparedQuery.Exec) into
// a high-QPS front-end. Four pieces compose:
//
//   - an admission-controlled Scheduler that runs at most Workers executions
//     at once, each on the goroutine of the request that asked for it,
//     rejecting excess load with a typed ErrOverloaded instead of queueing
//     without bound. Its Workers+Queue bound is the one admission rule: apart
//     from shutdown, nothing else answers 503;
//   - a PlanCache, an LRU of prepared queries keyed by query text + mode, so
//     a repeated query never pays parse/compile again;
//   - a memory broker that registers every running execution's MemGauge and,
//     under sustained pressure, aborts the largest one (507);
//   - a Server, an HTTP front-end that streams answers as NDJSON rows in
//     ranked order as they are produced, with per-request deadlines, budgets
//     and deterministic resource release on every exit path.
//
// The enumeration view of RPQ evaluation motivates the shape: answers stream
// with small per-answer delay after a one-off setup, so the serving layer's
// job is to amortise the setup (plan cache, evaluator-state pool) and to
// bound how many enumerations hold evaluator state at once. Interleaving the
// ones that run is left to the Go runtime.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
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
// evaluation or row encoding. Stream recovers the panic, aborts the
// execution (discarding its pooled state — see omega.Rows.Abort) and frees
// the request's slot; only the panicking request observes the error (HTTP
// 500).
var ErrInternal = errors.New("serve: internal error")

// ErrStalled is reported (wrapped) when the stuck-query watchdog aborts a
// running request that delivered no rows for longer than the configured
// StallBudget (HTTP 504). errors.As with *StalledError recovers
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
	// Workers is the number of requests that run at once (default 4). A
	// running request holds one of Workers slots from the start of its
	// execution to the end of its stream, on the goroutine that called
	// Stream.
	Workers int
	// Queue is the number of admitted requests allowed to wait for a slot
	// (default 2×Workers; negative means none). Admission rejects with
	// ErrOverloaded once Workers+Queue requests are in flight. Waiting
	// requests take slots in the order they began to wait.
	Queue int
	// RetryAfter is the back-off hint attached to ErrOverloaded rejections
	// (default 1s).
	RetryAfter time.Duration
	// StallBudget, when positive, arms the stuck-query watchdog: a running
	// request that has delivered no batch of rows (and not finished) for
	// longer than the budget is aborted with ErrStalled. The clock starts when
	// the request takes its slot — time spent waiting for one never counts,
	// so a long wait cannot stall anyone. Cancellation cannot reach a sink
	// blocked in a socket write; a sink bounds its own writes and reports the
	// timeout as ErrStalled, which the scheduler counts like a watchdog abort.
	StallBudget time.Duration
}

// withDefaults resolves the zero and negative values; NewScheduler is its
// one caller.
func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	switch {
	case c.Queue == 0:
		c.Queue = 2 * c.Workers
	case c.Queue < 0:
		c.Queue = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// SchedulerStats is a snapshot of the scheduler's counters.
type SchedulerStats struct {
	Submitted int64 `json:"submitted"` // admitted requests
	Rejected  int64 `json:"rejected"`  // admission rejections (ErrOverloaded)
	Completed int64 `json:"completed"` // requests finished without error
	Failed    int64 `json:"failed"`    // requests finished with an error (incl. cancellation)
	Panics    int64 `json:"panics"`    // panics recovered while running (ErrInternal)
	Stalled   int64 `json:"stalled"`   // requests aborted by the watchdog (ErrStalled)
	InFlight  int   `json:"in_flight"` // admitted, not yet finished
	Queued    int   `json:"queued"`    // admitted, waiting for a slot
}

// gapBuckets sizes the inter-row gap histogram: bucket i counts gaps below
// 2^i microseconds, so the top bucket covers everything above ~2.2 hours.
const gapBuckets = 34

// batchRows is how many rows a running request pulls from its execution at
// most per batch. The batch buffer comes with the slot: rows live only until
// the sink returns, so one buffer serves every request that holds the slot.
const batchRows = 64

// Sink receives a request's rows a batch at a time, in ranked order, on the
// goroutine that called Stream. The rows alias the execution's batch storage
// (see omega.Rows.NextBatch): a sink encodes or copies them before it
// returns. A sink that buffers learns when to push its buffer out through the
// execution's idle hook (omega.ExecOptions.Idle), which runs on the same
// goroutine, between deliveries. A write made there has no one to report a
// failure to, so the stream's end is one more call, with no rows: the sink
// returns such a failure then, and it becomes the request's outcome.
type Sink func(rows []omega.Row) error

// task is one admitted request.
type task struct {
	sink Sink

	rows  *omega.Rows
	n     int
	stats omega.Stats
	err   error

	// Watchdog state. cancel aborts the execution's context with a cause;
	// progress is the time (since the scheduler's epoch) at which the request
	// took its slot or last delivered a batch; stalled is guarded by the
	// scheduler mutex.
	cancel   context.CancelCauseFunc
	progress atomic.Int64
	stalled  bool

	// lastRow / gaps track inter-row latency, one clock reading per batch:
	// the batch's first row takes the gap since the previous batch, the rows
	// that came with it count as no gap at all. Only the request's own
	// goroutine touches them; gaps is merged into the scheduler histogram
	// when the request finishes.
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

// Scheduler bounds how many query executions run at once. Each admitted
// request runs on the goroutine that called Stream, holding one of Workers
// slots for its whole stream; a request that finds every slot taken waits
// for one, behind the requests that began waiting before it. The Go runtime
// interleaves the running ones. Admission is bounded: beyond Workers+Queue
// in-flight requests, Stream rejects immediately with ErrOverloaded rather
// than building an unbounded backlog.
type Scheduler struct {
	cfg   SchedulerConfig
	slots chan []omega.Row // Workers batch buffers: taking one takes a slot
	epoch time.Time        // origin of the tasks' progress times
	reqs  sync.WaitGroup   // admitted requests not yet finished

	mu       sync.Mutex
	active   map[*task]struct{} // requests holding a slot (watchdog scan set)
	gapHist  [gapBuckets]int64  // lifetime inter-row gap histogram
	gapTotal int64              // total gaps recorded
	inFlight int                // admitted and not finished (waiting + running)
	closed   bool
	stats    SchedulerStats

	watchWG   sync.WaitGroup // watchdog
	watchStop chan struct{}
	watchOnce sync.Once
}

// NewScheduler makes a scheduler with cfg.Workers slots, starting a watchdog
// goroutine when StallBudget is set. Close drains it and stops the watchdog.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:       cfg,
		slots:     make(chan []omega.Row, cfg.Workers),
		epoch:     time.Now(),
		active:    make(map[*task]struct{}),
		watchStop: make(chan struct{}),
	}
	for range cfg.Workers {
		s.slots <- make([]omega.Row, batchRows)
	}
	if cfg.StallBudget > 0 {
		s.watchWG.Add(1)
		go s.watchdog()
	}
	return s
}

// Stream admits one request and runs it on the calling goroutine: once it
// holds a slot, start begins the execution and sink receives every row in
// ranked order (see Sink) until the stream ends. The returned error is nil on
// normal exhaustion; an admission rejection surfaces as ErrOverloaded (with
// *OverloadedError context) before start ever runs; cancellation and
// deadline — while waiting for a slot or running — surface as
// omega.ErrCanceled / omega.ErrDeadline. Whatever the exit path, the
// execution's Rows is closed before Stream returns — that is the
// deterministic-release guarantee the HTTP layer relies on.
func (s *Scheduler) Stream(ctx context.Context, start func(ctx context.Context) (*omega.Rows, error), sink Sink) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := &task{sink: sink, submitted: time.Now(), queueSpan: obs.NoSpan, streamSpan: obs.NoSpan}
	if tr := obs.FromContext(ctx); tr != nil {
		t.tr = tr
		t.queueSpan = tr.Start(obs.Root, obs.SpanQueue)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Result{}, ErrSchedulerClosed
	}
	if s.inFlight >= s.cfg.Workers+s.cfg.Queue {
		s.stats.Rejected++
		n := s.inFlight
		s.mu.Unlock()
		return Result{}, &OverloadedError{InFlight: n, RetryAfter: s.cfg.RetryAfter}
	}
	s.inFlight++
	s.stats.Submitted++
	s.reqs.Add(1)
	s.mu.Unlock()
	defer s.reqs.Done()

	var batch []omega.Row
	select {
	case batch = <-s.slots:
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		// Canceled while waiting (or as the slot came): the request never
		// starts, and reports the error a running one would.
		if batch != nil {
			s.slots <- batch
		}
		t.err = mapCtxErr(err)
	} else {
		s.run(ctx, t, start, batch)
		s.slots <- batch
	}
	s.finish(t)
	return Result{Rows: t.n, Stats: t.stats}, t.err
}

// run executes t while it holds a slot, delivering its rows in batches into
// batch. On return the execution's Rows has been closed (and its Stats
// captured), or aborted.
//
// A panic anywhere in the run — evaluation, row encoding, a poisoned sink —
// is recovered here: the request fails with a typed ErrInternal, its
// execution is aborted (so pooled evaluator state is discarded, not
// recycled), and the slot goes to the next request. One bad request must
// never take the process, a slot, or a future request's pooled state with it.
func (s *Scheduler) run(ctx context.Context, t *task, start func(ctx context.Context) (*omega.Rows, error), batch []omega.Row) {
	// The cancel-cause wrapper is the watchdog's abort lever: cancelling with
	// a cause interrupts the evaluator mid-iteration (it polls its context
	// inside the pop loop), and finish maps the resulting cancellation back
	// onto ErrStalled.
	ctx, t.cancel = context.WithCancelCause(ctx)
	defer t.cancel(nil)
	now := time.Now()
	t.queueWait = now.Sub(t.submitted)
	t.progress.Store(int64(now.Sub(s.epoch)))
	s.mu.Lock()
	s.active[t] = struct{}{}
	s.mu.Unlock()
	if t.tr != nil {
		t.tr.End(t.queueSpan)
		t.streamSpan = t.tr.Start(obs.Root, obs.SpanStream)
	}

	defer func() {
		r := recover()
		if r == nil {
			return
		}
		t.err = fmt.Errorf("%w: recovered panic: %v", ErrInternal, r)
		t.abortRows(t.err)
		s.mu.Lock()
		s.stats.Panics++
		s.mu.Unlock()
	}()
	if fault.Enabled() {
		// serve.exec is the chaos hook for failures around an execution: an
		// error action simulates an internal fault, a panic action exercises
		// the recovery above.
		if err := fault.Inject("serve.exec"); err != nil {
			t.err = fmt.Errorf("%w: %v", ErrInternal, err)
			return
		}
	}
	rows, err := start(ctx)
	if err != nil {
		t.err = err
		return
	}
	t.rows = rows
	t.lastRow = time.Now() // first gap = time to first row
	for {
		n, err := rows.NextBatch(batch)
		if n == 0 {
			// The stream is over. A write the sink made from the idle hook
			// may have failed since its last delivery — and canceled the
			// request with it — so the sink has the last word.
			if serr := t.sink(nil); serr != nil {
				err = serr
			}
			t.err = err
			break
		}
		now := time.Now()
		t.recordGaps(now, n)
		t.progress.Store(int64(now.Sub(s.epoch)))
		if err := t.sink(batch[:n]); err != nil {
			t.err = err
			break
		}
		if t.n == 0 {
			// Client-visible time to first row: admission to sink delivery,
			// including the wait for a slot the engine-level figure cannot see.
			t.ttfr = time.Since(t.submitted)
		}
		t.n += n
	}
	t.stats = rows.Stats()
	_ = rows.Close()
}

// finish records t's outcome: it leaves the watchdog's scan set, its gaps
// join the histogram, a stall is typed as one, and the request-level timings
// are stamped into the stats the caller receives.
func (s *Scheduler) finish(t *task) {
	s.mu.Lock()
	delete(s.active, t)
	for i, c := range t.gaps {
		s.gapHist[i] += c
		s.gapTotal += c
	}
	// A watchdog abort surfaces from the evaluator as a context
	// cancellation; report it as the typed stall it really is. A sink whose
	// write timed out reports the stall itself — the watchdog's cancellation
	// cannot reach a blocked write — and is counted here unless the watchdog
	// got to the request first.
	if t.stalled && t.err != nil &&
		(errors.Is(t.err, omega.ErrCanceled) || errors.Is(t.err, omega.ErrDeadline)) {
		t.err = &StalledError{Budget: s.cfg.StallBudget}
	} else if !t.stalled && errors.Is(t.err, ErrStalled) {
		t.stalled = true
		s.stats.Stalled++
	}
	s.inFlight--
	if t.err != nil {
		s.stats.Failed++
	} else {
		s.stats.Completed++
	}
	s.mu.Unlock()

	// The scheduler's TTFR (admission → sink) replaces the engine's (Exec →
	// pop) because it is what the client saw.
	t.stats.QueueWaitNanos = int64(t.queueWait)
	if t.ttfr > 0 {
		t.stats.TTFRNanos = int64(t.ttfr)
	}
	if t.tr != nil {
		t.tr.End(t.queueSpan) // no-op unless it never started (canceled while waiting)
		t.tr.SetAttr(t.streamSpan, "rows", int64(t.n))
		t.tr.End(t.streamSpan)
	}
}

// watchdog periodically scans the running requests and aborts any that has
// delivered no batch for longer than StallBudget. It keeps running while
// Close drains, so a stuck in-flight request cannot wedge the drain.
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
		now := int64(time.Since(s.epoch))
		s.mu.Lock()
		for t := range s.active {
			if !t.stalled && time.Duration(now-t.progress.Load()) > s.cfg.StallBudget {
				t.stalled = true
				s.stats.Stalled++
				t.cancel(ErrStalled)
			}
		}
		s.mu.Unlock()
	}
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

// abortRows terminates t's execution after a panic, poisoning its pooled
// state. The execution is the very thing that just blew up, so stats capture
// and abort both run under a recover of their own — a second panic must not
// escape Stream either.
func (t *task) abortRows(err error) {
	if t.rows == nil {
		return
	}
	defer func() { _ = recover() }()
	t.rows.Abort(err)
	t.stats = t.rows.Stats()
}

// mapCtxErr maps a context error onto the engine's typed errors, so a
// request canceled while waiting for a slot reports the same error a running
// one would.
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
	st.Queued = s.inFlight - len(s.active)
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

// Close stops admission and waits until every in-flight request — waiting
// or running — has finished. It is idempotent and safe to call concurrently
// with Stream (late submissions report ErrSchedulerClosed). The watchdog
// keeps running until the drain completes, so a stuck request cannot wedge
// Close: it gets aborted with ErrStalled like any other.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.reqs.Wait()
	s.watchOnce.Do(func() { close(s.watchStop) })
	s.watchWG.Wait()
	return nil
}
