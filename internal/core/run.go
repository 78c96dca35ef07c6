package core

import (
	"context"
	"errors"
	"fmt"

	"omega/internal/fault"
	"omega/internal/obs"
)

// fpMemHard is the failpoint site of the memory governor (see
// internal/fault): when it fires, it forces a typed budget abort regardless
// of the actual byte figures — the chaos suite drives the abort path
// deterministically without having to tune real allocations.
const fpMemHard = "mem.hard"

// idleOps is the tuple-operation period of the idle hook: the execution calls
// ExecOptions.Idle each time its evaluators' adds and pops reach another
// multiple of it, so a caller holding rows back holds none for longer than
// this much of the execution's work.
const idleOps = 4096

// run is the governance context of one execution: everything that is decided
// per request rather than per plan, and the only spelling of every policy the
// iterator drivers enforce. Prepared.Exec builds one (held by value in the
// Execution), OpenConjunct builds one with no watermarks, and every driver
// holds the pointer instead of an *Options and a context of its own. The
// drivers decide *when* a policy is checked — the evaluator every 512 tuple
// operations and every 4096 pops, the bulk backend once per BFS level, the
// Execution once per NextBatch — and the methods here decide *what* the check
// is. Every driver of the run works on the execution's goroutine, so the
// operation counter is execution-wide.
type run struct {
	// opts is this run's private copy of the prepared options, with the
	// per-execution tuple budget written in; it must not change once a driver
	// holds the run.
	opts Options
	// pool recycles the evaluators' state bundles; nil when the execution has
	// none.
	pool *EvalPool
	// ctx cancels the run; nil when it cannot be canceled (context.Background
	// and friends), so the checks cost one compare there.
	ctx context.Context
	// mem is the gauge every driver of the run charges; never nil. Its
	// watermarks bound the whole execution, not each conjunct separately.
	mem *MemGauge
	// trace is the request's trace (nil when untraced: every instrumented site
	// is one nil-receiver call) and span the exec span under which drivers
	// parent the spans they record lazily (bulk index builds, ψ phases).
	trace *obs.Trace
	span  obs.SpanID

	// ops counts the tuple operations — adds and pops — of the evaluators
	// running on this run; idle, when non-nil, is called each time ops reaches
	// idleAt, the next multiple of idleOps, and before work that yields no row
	// for a while (a bulk lane block).
	ops    int
	idleAt int
	idle   func()
}

// newRun builds the run and opens its exec span (NoSpan when untraced).
func newRun(ctx context.Context, opts Options, mem *MemGauge, pool *EvalPool, trace *obs.Trace) run {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	return run{opts: opts, ctx: ctx, mem: mem, pool: pool, trace: trace, span: trace.Start(obs.Root, obs.SpanExec), idleAt: idleOps}
}

// tick counts n tuple operations and calls the idle hook once for every
// multiple of idleOps the count reaches.
func (r *run) tick(n int) {
	r.ops += n
	for r.ops >= r.idleAt {
		r.idleAt += idleOps
		r.onIdle()
	}
}

// onIdle calls the idle hook, if there is one.
func (r *run) onIdle() {
	if r.idle != nil {
		r.idle()
	}
}

// ContextErr maps a done context onto the package's typed errors and reports
// nil for a live one. A typed cancellation cause is honoured: the serving
// layer's memory broker victimizes an execution by canceling its context with
// cause ErrMemBudget, and that must surface as the typed budget abort
// (poisoning the pooled bundle), not as a generic ErrCanceled. Other causes
// (e.g. the scheduler watchdog's ErrStalled) keep the plain mapping — their
// layers remap downstream.
func ContextErr(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(context.Cause(ctx), ErrMemBudget):
		return fmt.Errorf("%w: aborted by memory broker", ErrMemBudget)
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return err
	}
}

// done reports the run's typed cancellation error, nil while it may go on.
func (r *run) done() error {
	if r.ctx == nil {
		return nil
	}
	return ContextErr(r.ctx)
}

// account makes *slot — one owner's share of the gauge: an evaluator or a
// bulk run — read resident, pushing the difference into the gauge.
// Accounting only; no watermark is checked.
func (r *run) account(slot *int64, resident int64) {
	if d := resident - *slot; d != 0 {
		r.mem.add(d)
		*slot = resident
	}
}

// charge accounts the slot's new footprint and enforces the hard watermark:
// the typed ErrMemBudget once the execution's live bytes are over it, or when
// the mem.hard failpoint fires.
func (r *run) charge(slot *int64, resident int64) error {
	r.account(slot, resident)
	if fault.Enabled() {
		if err := fault.Inject(fpMemHard); err != nil {
			return fmt.Errorf("%w: %w", ErrMemBudget, err)
		}
	}
	if live := r.mem.LiveBytes(); r.mem.hard > 0 && live > r.mem.hard {
		return fmt.Errorf("%w: %d live bytes over hard watermark %d", ErrMemBudget, live, r.mem.hard)
	}
	return nil
}

// refund hands the slot's bytes back: its owner's structures are about to be
// released, or recycled into another execution's accounting.
func (r *run) refund(slot *int64) { r.account(slot, 0) }

// overBudget reports whether tuples exceeds the run's tuple budget.
func (r *run) overBudget(tuples int) bool {
	return r.opts.MaxTuples > 0 && tuples > r.opts.MaxTuples
}

// closedErr is the sticky error of a driver after Close: ErrClosed, unless it
// already had a terminal error.
func closedErr(failed error) error {
	if failed == nil {
		return ErrClosed
	}
	return failed
}

// abortErr is the sticky error of a driver after Abort(err): err supersedes a
// clean stop (none yet, Close, cancellation, a budget), never an earlier
// failure.
func abortErr(failed, err error) error {
	if failed == nil || recyclable(failed) {
		return err
	}
	return failed
}
