package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/obs"
	"omega/internal/ontology"
)

// This file implements prepared queries and context-aware execution: the
// preprocess-once / enumerate-on-demand split that the enumeration literature
// frames for RPQs. PrepareQuery runs everything in query initialisation that
// does not depend on per-run state — validation, conjunct reordering, path
// rewriting, automaton construction and ε-removal, Case 1 seed and
// final-annotation resolution — into an immutable Prepared that any number of
// goroutines may Exec concurrently. Exec instantiates only the per-run
// evaluator state (D_R, visited set, answer registry, deferred frontier) and
// returns an Execution whose Close releases disk-backed state (spill files)
// deterministically instead of at process exit.

// ExecOptions are the per-execution knobs of a prepared query. They deliberately
// carry only what varies call-to-call in a serving workload; everything that
// shapes the compiled plan (costs, optimisation strategies, batch size,
// dictionary selection) stays in Options, fixed at Prepare time.
type ExecOptions struct {
	// Limit caps the number of answers returned; the execution reports
	// exhaustion and releases its resources once the cap is reached.
	// 0 means unlimited.
	Limit int
	// MaxDist caps the total distance of returned answers: the execution
	// stops before the first answer whose distance exceeds it (emission is
	// non-decreasing, so nothing below the cap is lost). In distance-aware
	// mode it also caps the ψ stepping, pruning work that could only produce
	// over-budget answers. 0 means unlimited.
	MaxDist int32
	// MaxTuples overrides Options.MaxTuples for this execution when positive
	// (0 inherits the prepared value). Evaluation beyond the budget returns
	// ErrTupleBudget.
	MaxTuples int
	// Mode, when non-nil, overrides every conjunct's mode for this execution
	// (the study's exact/APPROX/RELAX sweeps over one query text). The first
	// execution with a given override compiles that variant's automata; the
	// variant is cached in the Prepared, so repeats pay nothing.
	Mode *automaton.Mode
	// Pool, when non-nil, recycles this execution's evaluator state (D_R,
	// visited table, answer registry, deferred frontier, scratch buffers) from
	// and back to the given pool, so steady-state serving allocates near zero
	// per request. Pooled emission is byte-identical to fresh. Ignored for
	// configurations whose state is not recyclable (Options.SpillThreshold > 0,
	// RefDict). See EvalPool.
	Pool *EvalPool
	// SoftMemBytes, when positive, is the execution's soft memory watermark:
	// once the accounted resident bytes of its evaluation structures cross
	// it, the execution degrades to disk — arming or tightening spill
	// thresholds on the deferred frontier and spill dictionary — and keeps
	// streaming. Structures without a disk path (the plain in-memory D_R)
	// are unaffected. 0 means no soft watermark.
	SoftMemBytes int64
	// HardMemBytes, when positive, is the hard watermark: crossing it aborts
	// the execution with the typed ErrMemBudget through the sticky error
	// contract, poisoning any pooled evaluator state. Accounting is sampled,
	// so enforcement trails real growth by at most one sample period.
	// 0 means no hard watermark.
	HardMemBytes int64
	// Mem, when non-nil, is an externally created gauge the execution
	// accounts into; its watermarks take precedence over Soft/HardMemBytes.
	// The serving layer uses this to observe per-request live bytes for the
	// memory broker's victim selection. When nil, Exec creates a private
	// gauge, so Stats.MemPeakBytes is always populated.
	Mem *MemGauge
	// Trace, when non-nil, records this execution's phase spans (exec,
	// per-conjunct evaluation, bulk index builds, ψ phases, close) into the
	// request's trace. Nil — the default — keeps the whole feature to one nil
	// check per instrumented site and zero allocations.
	Trace *obs.Trace
	// Backend overrides Options.Backend for this execution: BackendAuto
	// (zero value) inherits the engine-level default (itself auto unless
	// pinned), BackendRanked/BackendBulk force the engine. Auto picks the
	// bulk set-semantics backend only for exhaustive executions (Limit and
	// MaxDist both zero) of zero-cost exact plans whose seed population
	// makes the word-parallel scan pay; a forced BackendBulk falls back to
	// ranked for conjuncts the bulk engine cannot evaluate (non-zero-cost
	// plans). Stats.Backend reports what actually ran.
	Backend Backend
	// Parallelism overrides Options.Parallelism for this execution when
	// positive (0 inherits the engine default). At K > 1, bulk conjuncts fan
	// their lane blocks across K workers, eligible ranked conjuncts shard
	// their seed population across up to K per-shard evaluators merged back
	// into the serial emission order, and multi-conjunct executions prefetch
	// conjunct streams concurrently. Emission is byte-identical to serial at
	// any value; conjuncts whose shape the parallel paths cannot reproduce
	// exactly simply run serial (Stats.Shards reports what engaged). Values
	// are clamped to [1, 64]. Note MaxTuples is enforced per worker under
	// sharding, so a parallel run may admit up to K× the budget before
	// tripping it.
	Parallelism int
}

// planSet is one fully compiled variant of a prepared query: the (possibly
// mode-overridden) query plus one immutable conjunctPlan per conjunct.
type planSet struct {
	q     *Query
	plans []*conjunctPlan
}

// Prepared is a compiled query, ready for repeated execution. It is immutable
// after PrepareQuery returns — safe for concurrent Exec from any number of
// goroutines — except for the internal mode-variant cache, which is guarded
// by a mutex.
type Prepared struct {
	g    *graph.Graph
	ont  *ontology.Ontology
	opts Options // defaults applied

	order []int    // the conjunct permutation ReorderConjuncts applied (nil when none)
	def   *planSet // the query's own modes

	mu          sync.Mutex
	variants    map[automaton.Mode]*planSet // lazily compiled Mode overrides
	compiles    int                         // automata built across all variants
	compileTime time.Duration
}

// cloneQuery deep-copies the query's head and conjunct slices so the Prepared
// is immune to later caller mutation (the Expr trees are treated as immutable
// by the whole pipeline and are shared).
func cloneQuery(q *Query) *Query {
	out := &Query{
		Head:      append([]string(nil), q.Head...),
		Conjuncts: append([]Conjunct(nil), q.Conjuncts...),
	}
	return out
}

// PrepareQuery compiles q once for repeated execution: validation, optional
// conjunct reordering, and per-conjunct automaton construction (the paper's
// Open, minus the per-run D_R seeding). The result is goroutine-shareable.
func PrepareQuery(g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	q = cloneQuery(q)
	p := &Prepared{g: g, ont: ont, opts: opts}
	if opts.ReorderConjuncts && len(q.Conjuncts) > 1 {
		p.order = planQueryTree(q)
		q = applyPlan(q, p.order)
	}
	def, err := p.compileSet(q, nil)
	if err != nil {
		return nil, err
	}
	p.def = def
	return p, nil
}

// compileSet compiles one variant of the query, with every conjunct's mode
// replaced by *mode when non-nil.
func (p *Prepared) compileSet(q *Query, mode *automaton.Mode) (*planSet, error) {
	start := time.Now()
	ps := &planSet{q: q}
	if mode != nil {
		q2 := cloneQuery(q)
		for i := range q2.Conjuncts {
			q2.Conjuncts[i].Mode = *mode
		}
		ps.q = q2
	}
	built := 0
	for i, c := range ps.q.Conjuncts {
		plan, err := compileConjunct(p.g, p.ont, c, p.opts)
		if err != nil {
			return nil, fmt.Errorf("core: conjunct %d: %w", i+1, err)
		}
		ps.plans = append(ps.plans, plan)
		built += plan.built
	}
	p.mu.Lock()
	p.compiles += built
	p.compileTime += time.Since(start)
	p.mu.Unlock()
	return ps, nil
}

// planSetFor returns the compiled variant for the given mode override (nil =
// the query as written), compiling and caching it on first use.
func (p *Prepared) planSetFor(mode *automaton.Mode) (*planSet, error) {
	if mode == nil {
		return p.def, nil
	}
	// An override that matches the query as written needs no new variant.
	same := true
	for _, c := range p.def.q.Conjuncts {
		if c.Mode != *mode {
			same = false
			break
		}
	}
	if same {
		return p.def, nil
	}
	p.mu.Lock()
	if ps, ok := p.variants[*mode]; ok {
		p.mu.Unlock()
		return ps, nil
	}
	p.mu.Unlock()
	// Compile outside the lock (compilation can be slow); a racing Exec with
	// the same override may compile twice, and the first store wins.
	ps, err := p.compileSet(p.def.q, mode)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.variants == nil {
		p.variants = map[automaton.Mode]*planSet{}
	}
	if won, ok := p.variants[*mode]; ok {
		return won, nil
	}
	p.variants[*mode] = ps
	return ps, nil
}

// Query returns the prepared query (post-reordering). The caller must not
// modify it.
func (p *Prepared) Query() *Query { return p.def.q }

// CompileStats reports how many automata this Prepared has built across all
// of its variants and the total time spent compiling them. Repeated Exec
// calls never move these counters.
func (p *Prepared) CompileStats() (automata int, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compiles, p.compileTime
}

// runOptions is the run's private copy of the prepared options with eo's
// overrides written in — the one copy every iterator of an execution reads,
// and the one Explain renders from.
func (p *Prepared) runOptions(eo ExecOptions) Options {
	opts := p.opts
	if eo.MaxTuples > 0 {
		opts.MaxTuples = eo.MaxTuples
	}
	opts.Parallelism = resolveParallelism(eo.Parallelism, p.opts.Parallelism)
	return opts
}

// Exec instantiates a new execution of the prepared query. The returned
// Execution is single-goroutine (run concurrent executions by calling Exec
// once per goroutine); ctx cancellation surfaces as ErrCanceled/ErrDeadline
// from Next within one GetNext iteration. The caller should Close the
// execution when abandoning it before exhaustion — that is what releases
// spill files deterministically.
func (p *Prepared) Exec(ctx context.Context, eo ExecOptions) (*Execution, error) {
	ps, err := p.planSetFor(eo.Mode)
	if err != nil {
		return nil, err
	}
	mem := eo.Mem
	if mem == nil {
		mem = NewMemGauge(eo.SoftMemBytes, eo.HardMemBytes)
	}
	ex := &Execution{
		r:       newRun(ctx, p.runOptions(eo), mem, eo.Pool, eo.Trace),
		limit:   eo.Limit,
		maxDist: eo.MaxDist,
		started: time.Now(),
	}
	r := &ex.r
	ex.its = make([]Iterator, len(ps.plans))
	ex.backends = make([]Backend, len(ps.plans))
	if r.trace != nil {
		ex.conjSpans = make([]obs.SpanID, len(ps.plans))
	}
	for i, plan := range ps.plans {
		dec := plan.backendFor(eo)
		ex.backends[i] = dec.backend
		// The conjunct span opens before the iterator so that a sharded
		// conjunct can nest its shard spans under it; open records no span of
		// its own, so the span order is that of the conjuncts.
		sp := obs.NoSpan
		if r.trace != nil {
			sp = r.trace.Start(r.span, obs.SpanConjunct)
			r.trace.SetAttr(sp, "idx", int64(i))
			if dec.backend == BackendBulk {
				r.trace.SetAttr(sp, "bulk", 1)
			}
			ex.conjSpans[i] = sp
		}
		it := plan.open(r, sp, eo.MaxDist, dec.backend)
		if len(ps.plans) > 1 && r.opts.Parallelism > 1 {
			// Concurrent conjunct evaluation: each conjunct prefetches its
			// stream from its own goroutine through a bounded buffer; the
			// rank join's sequential peek order — and therefore its output —
			// is unchanged.
			it = newPrefetchIterator(it)
		}
		ex.its[i] = it
	}
	q := ps.q
	switch {
	case len(q.Conjuncts) == 1:
		sc := &singleConjunct{q: q, it: ex.its[0]}
		sc.bulk, _ = ex.its[0].(*bulkIterator)
		// The bulk backend emits set-distinct (Src, Dst) pairs; with an
		// injective head projection the rows are already unique and the
		// per-row dedup probe (a third of bulk's per-answer cost) is waste.
		if ex.backends[0] != BackendBulk || !injectiveProjection(q) {
			sc.dedup = newProjDedup(len(q.Head))
		}
		ex.single = sc
	default:
		ex.join = newRankedJoin(q, ex.its)
	}
	return ex, nil
}

// Execution is one run of a prepared query: a QueryIterator with
// deterministic resource release (Close) and per-run Limit/MaxDist
// accounting. After an error, Next and NextBatch keep returning the same
// error (sticky); after Close, they return ErrClosed.
type Execution struct {
	r run // this run's governance context; the iterators hold a pointer to it

	its      []Iterator      // conjunct-level iterators (the resource owners)
	backends []Backend       // per-conjunct engine choice, for Stats.Backend
	single   *singleConjunct // single-conjunct executions: the batch-native row source
	join     *rankedJoin     // multi-conjunct executions: the rank join, one row per pull

	limit   int
	maxDist int32

	n        int
	err      error
	done     bool
	closed   bool
	closeErr error
	released bool

	chunk []graph.NodeID // backing store for rows Next hands out, carved per row

	// Tracing (inert when the execution is untraced — the per-batch cost is
	// the single e.n == 0 compare in NextBatch).
	started   time.Time
	ttfr      time.Duration
	conjSpans []obs.SpanID
}

// Next returns the next answer in non-decreasing total distance, honouring
// the execution's context, Limit and MaxDist. When it reports ok=false or an
// error, the execution's resources have already been released. It is a batch
// of one out of NextBatch, copied so the row may outlive the next call.
func (e *Execution) Next() (QueryAnswer, bool, error) {
	var one [1]QueryAnswer
	n, err := e.NextBatch(one[:])
	if n == 0 {
		return QueryAnswer{}, false, err
	}
	a := one[0]
	if e.single != nil {
		// The row aliases the conjunct's batch storage; rows from Next escape
		// to the caller, so they cannot reuse one buffer, but they can share
		// large ones — one allocation per 64 rows instead of one per row.
		// (A join's rows are freshly allocated already.)
		w := len(a.Nodes)
		if len(e.chunk)+w > cap(e.chunk) {
			e.chunk = make([]graph.NodeID, 0, 64*w)
		}
		off := len(e.chunk)
		e.chunk = append(e.chunk, a.Nodes...)
		a.Nodes = e.chunk[off : off+w : off+w]
	}
	return a, true, nil
}

// NextBatch is the batch pull every other way of draining an execution sits
// on. It blocks until the next answer exists, then adds only answers that are
// ready without further evaluation — the rest of the bulk backend's current
// lane block; a ranked evaluator, a merger or a join always yields one — up
// to len(dst), clipped to what Limit and MaxDist leave, and returns how many
// it stored. The context is checked once per call. 0 with a nil error means
// the stream is exhausted (resources are released by then); errors are
// sticky.
//
// Aliasing: the rows' Nodes slices point into storage the execution owns and
// overwrites on the next NextBatch or Next call. A caller that keeps a row
// beyond that must copy its Nodes (Next does).
func (e *Execution) NextBatch(dst []QueryAnswer) (int, error) {
	if e.closed {
		if e.err != nil {
			return 0, e.err
		}
		return 0, ErrClosed
	}
	if e.err != nil {
		return 0, e.err
	}
	if e.done || len(dst) == 0 {
		return 0, nil
	}
	if err := e.r.done(); err != nil {
		// Cancellation and deadline recycle pooled bundles; a broker victim
		// kill (cause ErrMemBudget) poisons them — terminate knows which.
		return 0, e.terminate(err)
	}
	if e.limit > 0 {
		left := e.limit - e.n
		if left <= 0 {
			return 0, e.terminate(nil)
		}
		if len(dst) > left {
			dst = dst[:left]
		}
	}
	// The row source: the single conjunct's batch pull, or one row of the
	// rank join (its next row is another join round, never ready).
	var n int
	var err error
	if e.single != nil {
		n, err = e.single.NextBatch(dst)
	} else {
		var ok bool
		if dst[0], ok, err = e.join.Next(); ok {
			n = 1
		}
	}
	if err != nil {
		return 0, e.terminate(err)
	}
	if e.maxDist > 0 {
		// Emission is non-decreasing, so the first over-budget row ends the
		// stream; the rows before it in this batch are still answers.
		for i := 0; i < n; i++ {
			if dst[i].Dist > e.maxDist {
				n = i
				e.done = true
				break
			}
		}
	}
	if n > 0 && e.n == 0 {
		e.ttfr = time.Since(e.started)
	}
	e.n += n
	if n == 0 || e.done {
		e.terminate(nil)
	}
	return n, nil
}

// terminate is the one way an execution ends — exhaustion, Limit, MaxDist and
// Close with a nil reason; an evaluation error, cancellation, a broker victim
// kill and Abort with theirs. The first non-nil reason becomes the sticky
// error (returned, for the callers' convenience); the first call finishes the
// spans while the iterators are still queryable, then releases every conjunct
// under a close span: Close when the reason leaves evaluator state intact (see
// recyclable), so pooled bundles recycle, Abort otherwise, so they are
// discarded — a conjunct that did not itself fail included, since an
// ErrMemBudget exists to shed the execution's memory and after a panic no
// state is trusted.
func (e *Execution) terminate(reason error) error {
	if reason == nil {
		e.done = true
	} else if e.err == nil {
		e.err = reason
	}
	if e.released {
		return e.err
	}
	e.released = true
	e.finishSpans()
	closeSpan := e.r.trace.Start(obs.Root, obs.SpanClose)
	for _, it := range e.its {
		if !recyclable(reason) {
			it.Abort(reason)
		} else if err := it.Close(); err != nil && e.closeErr == nil {
			e.closeErr = err
		}
	}
	e.r.trace.End(closeSpan)
	return e.err
}

// finishSpans stamps each conjunct span with its iterator's final counters and
// ends the execution-level spans.
func (e *Execution) finishSpans() {
	tr := e.r.trace
	if tr == nil {
		return
	}
	for i, sp := range e.conjSpans {
		s := e.its[i].Stats()
		tr.SetAttr(sp, "tuples_added", int64(s.TuplesAdded))
		tr.SetAttr(sp, "tuples_popped", int64(s.TuplesPopped))
		tr.SetAttr(sp, "phases", int64(s.Phases))
		if s.Deferred > 0 {
			tr.SetAttr(sp, "deferred", int64(s.Deferred))
			tr.SetAttr(sp, "reinjected", int64(s.Reinjected))
		}
		if s.SpillEscalations > 0 {
			tr.SetAttr(sp, "spill_escalations", int64(s.SpillEscalations))
		}
		if s.Shards > 0 {
			tr.SetAttr(sp, "shards", int64(s.Shards))
		}
		if s.SpillIONanos > 0 {
			tr.SetAttr(sp, "spill_io_us", s.SpillIONanos/1e3)
			tr.SetAttr(sp, "spill_io_bytes", s.SpillIOBytes)
		}
		tr.End(sp)
	}
	tr.SetAttr(e.r.span, "rows", int64(e.n))
	if e.ttfr > 0 {
		tr.SetAttr(e.r.span, "ttfr_us", e.ttfr.Microseconds())
	}
	tr.End(e.r.span)
}

// Close releases the execution's resources (spill files, deferred frontiers)
// deterministically. It is idempotent, safe after exhaustion, and safe to
// call on an execution another error already terminated; subsequent Next
// calls return ErrClosed (or the earlier terminal error).
func (e *Execution) Close() error {
	e.closed = true
	e.terminate(nil)
	return e.closeErr
}

// Abort terminates the execution with a caller-supplied error and releases
// its resources, marking any pooled evaluator state unsafe to recycle unless
// err is one of the clean stops. It is the recovery path for panics that
// unwound through Next: the evaluators' internal state is untrustworthy, so
// instead of returning bundles to the EvalPool they are discarded
// (PoolStats.Poisoned counts them). Subsequent Next calls report err
// (sticky). Idempotent, and safe after Close.
func (e *Execution) Abort(err error) {
	e.closed = true
	e.terminate(err)
}

// Stats reports the run's counters, delegating to the underlying iterator tree:
// a single conjunct's own counters, or the rank join's fold over its
// conjuncts.
func (e *Execution) Stats() Stats {
	var s Stats
	if e.single != nil {
		s = e.single.Stats()
	} else {
		s = e.join.Stats()
	}
	s.Backend = backendsLabel(e.backends)
	s.Parallelism = e.r.opts.Parallelism
	if e.ttfr > 0 {
		s.TTFRNanos = int64(e.ttfr)
	}
	return s
}
