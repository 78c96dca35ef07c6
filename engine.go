package omega

import (
	"context"
	"fmt"
	"time"

	"omega/internal/core"
	"omega/internal/obs"
)

// Engine bundles a graph, an optional ontology and evaluation options into a
// convenient query interface. An Engine is immutable and safe for concurrent
// use: any number of goroutines may Prepare and run queries on the same
// Engine (WithOptions returns a new Engine rather than mutating).
type Engine struct {
	g    *Graph
	ont  *Ontology
	opts Options
}

// NewEngine returns an Engine over g. ont may be nil when RELAX is not used.
func NewEngine(g *Graph, ont *Ontology) *Engine {
	return &Engine{g: g, ont: ont}
}

// WithOptions returns a copy of the engine using the given options.
func (e *Engine) WithOptions(opts Options) *Engine {
	return &Engine{g: e.g, ont: e.ont, opts: opts}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *Graph { return e.g }

// Ontology returns the engine's ontology (may be nil).
func (e *Engine) Ontology() *Ontology { return e.ont }

// PreparedQuery is a query compiled once for repeated execution: parsing,
// conjunct planning and automaton construction are done at Prepare time, and
// each Exec instantiates only the per-run evaluator state. A PreparedQuery is
// immutable and may be shared by any number of goroutines, each calling Exec
// for its own *Rows.
type PreparedQuery struct {
	g *Graph
	p *core.Prepared
}

// Prepare compiles a parsed query for repeated execution. The query is copied;
// later mutation of q does not affect the prepared form.
func (e *Engine) Prepare(q *Query) (*PreparedQuery, error) {
	p, err := core.PrepareQuery(e.g, e.ont, q, e.opts)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{g: e.g, p: p}, nil
}

// PrepareText parses and compiles a textual query for repeated execution.
func (e *Engine) PrepareText(text string) (*PreparedQuery, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return e.Prepare(q)
}

// Exec starts one execution of the prepared query. ctx cancels the run:
// Next reports ErrCanceled (or ErrDeadline) within one GetNext iteration of
// the cancellation. The returned Rows is for a single goroutine; concurrent
// serving calls Exec once per request. Close the Rows when abandoning it
// before exhaustion — that is what releases spill files deterministically.
func (pq *PreparedQuery) Exec(ctx context.Context, opts ExecOptions) (*Rows, error) {
	ex, err := pq.p.Exec(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Rows{ex: ex, g: pq.g, trace: opts.Trace}, nil
}

// Explain renders the plan that Exec(ctx, opts) would run, without running
// it: the conjunct order, and per conjunct of the opts.Mode variant the Open
// case, automaton sizes, seed population, the driver and §4.3 strategies
// (with the ψ cap under opts.MaxDist and the resolved tuple budget), and the
// backend decision with the planner's evidence — computed by the same code
// Exec uses, so it names what the run's Stats report.
func (pq *PreparedQuery) Explain(opts ExecOptions) (string, error) {
	return pq.p.Explain(opts)
}

// Query returns the compiled query (after any conjunct reordering). The
// caller must not modify it.
func (pq *PreparedQuery) Query() *Query { return pq.p.Query() }

// CompileStats reports how many automata this prepared query has built (over
// all mode variants) and the total time spent compiling them. Repeated Exec
// calls never move these counters — that is the amortisation contract.
func (pq *PreparedQuery) CompileStats() (automata int, d time.Duration) {
	return pq.p.CompileStats()
}

// Row is one query result with node labels resolved.
type Row struct {
	Vars   []string
	Nodes  []NodeID
	Labels []string
	Dist   int
}

// String implements fmt.Stringer.
func (r Row) String() string {
	s := ""
	for i, v := range r.Vars {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("?%s=%s", v, r.Labels[i])
	}
	return fmt.Sprintf("[%s] dist=%d", s, r.Dist)
}

// Rows iterates query results in non-decreasing total distance. A Rows is
// for one goroutine; it is not safe for concurrent use.
//
// Error contract: once Next or NextBatch returns a non-nil error the error is
// sticky — every subsequent call returns it again — so a Collect or ForEach
// caller can always distinguish exhaustion (nil error) from failure. After
// Close, they return ErrClosed (or the earlier terminal error).
type Rows struct {
	ex     *core.Execution
	g      *Graph
	trace  *obs.Trace // the request's trace when ExecOptions.Trace was set
	err    error
	closed bool
	chunk  []string // backing store for the labels of rows Next hands out, carved per row

	batch  []core.QueryAnswer // NextBatch's pull buffer
	labels []string           // batch-owned label storage, overwritten by every NextBatch
}

// TraceSummary snapshots the execution's trace as a span tree. It returns nil
// unless the execution was started with ExecOptions.Trace. Callers typically
// invoke it after draining or closing the Rows, so every phase span is closed;
// calling it mid-stream is safe and reports still-open spans as ending now.
func (r *Rows) TraceSummary() *TraceSummary {
	return r.trace.Summary()
}

// carveLabels cuts a w-wide label slice from the chunk (one allocation per 64
// rows instead of one per row; rows escape, so they share big buffers rather
// than reusing one). Full-capacity bounded: appends through a returned row
// cannot touch its neighbours.
func (r *Rows) carveLabels(w int) []string {
	if len(r.chunk)+w > cap(r.chunk) {
		r.chunk = make([]string, 0, 64*w)
	}
	off := len(r.chunk)
	r.chunk = r.chunk[:off+w]
	return r.chunk[off : off+w : off+w]
}

// usable reports the sticky error, or ErrClosed after Close.
func (r *Rows) usable() error {
	if r.err == nil && r.closed {
		r.err = ErrClosed
	}
	return r.err
}

// fail makes err sticky and releases the execution.
func (r *Rows) fail(err error) error {
	r.err = err
	_ = r.Close()
	return err
}

// Next returns the next row in non-decreasing distance. ok=false with a nil
// error means the result stream is exhausted (resources are released
// automatically at that point); a non-nil error is sticky. The row is the
// caller's to keep: Next is a batch of one (see NextBatch) copied out of the
// batch storage.
func (r *Rows) Next() (Row, bool, error) {
	if err := r.usable(); err != nil {
		return Row{}, false, err
	}
	a, ok, err := r.ex.Next()
	if err != nil {
		return Row{}, false, r.fail(err)
	}
	if !ok {
		return Row{}, false, nil
	}
	row := Row{Vars: a.Head, Nodes: a.Nodes, Dist: int(a.Dist)}
	row.Labels = r.carveLabels(len(a.Nodes))
	for i, n := range a.Nodes {
		row.Labels[i] = r.g.NodeLabel(n)
	}
	return row, true, nil
}

// NextBatch is the block-at-a-time pull that Next, Collect and ForEach sit
// on: it blocks until the next row exists, then adds only rows that are ready
// without further evaluation, up to len(dst), and returns how many it stored.
// An exhaustive scan on the bulk backend hands over the rest of its current
// 64-source block this way; a ranked APPROX/RELAX stream, whose next answer
// is always more search, yields one row per call. So a batch shorter than
// len(dst) means the engine has gone back to work — the moment a server
// should flush what it holds. 0 with a nil error means the stream is
// exhausted (resources are released by then); errors are sticky as for Next.
//
// Aliasing: the rows' Nodes and Labels slices point into storage the Rows
// owns and overwrites on the next NextBatch or Next call. Encode or copy a
// batch before pulling the next one; rows that must outlive the call come
// from Next, which copies.
func (r *Rows) NextBatch(dst []Row) (int, error) {
	if err := r.usable(); err != nil {
		return 0, err
	}
	if cap(r.batch) < len(dst) {
		r.batch = make([]core.QueryAnswer, len(dst))
	}
	n, err := r.ex.NextBatch(r.batch[:len(dst)])
	if err != nil {
		return 0, r.fail(err)
	}
	if n == 0 {
		return 0, nil
	}
	w := len(r.batch[0].Nodes)
	if need := len(dst) * w; cap(r.labels) < need {
		r.labels = make([]string, need)
	}
	for i := range r.batch[:n] {
		a := &r.batch[i]
		labels := r.labels[i*w : (i+1)*w : (i+1)*w]
		for j, nd := range a.Nodes {
			labels[j] = r.g.NodeLabel(nd)
		}
		dst[i] = Row{Vars: a.Head, Nodes: a.Nodes, Labels: labels, Dist: int(a.Dist)}
	}
	return n, nil
}

// Collect pulls up to limit rows (limit ≤ 0 means all). A non-nil error
// accompanies the rows gathered before the failure; err == nil means the
// stream ended (or limit was reached) normally.
func (r *Rows) Collect(limit int) ([]Row, error) {
	var out []Row
	for limit <= 0 || len(out) < limit {
		row, ok, err := r.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, row)
	}
	return out, nil
}

// ForEach streams rows into fn until exhaustion, an error, a false-returning
// context, or a non-nil error from fn (which is returned verbatim). The Rows
// is closed when ForEach returns, whatever the cause — it is the recommended
// serving loop:
//
//	err := rows.ForEach(ctx, func(row omega.Row) error {
//		return send(row)
//	})
func (r *Rows) ForEach(ctx context.Context, fn func(Row) error) error {
	defer r.Close()
	for {
		if ctx != nil {
			if err := core.ContextErr(ctx); err != nil {
				// The loop's context ends the execution exactly as its own
				// would: the same typed error, the same fate for pooled state.
				// An earlier terminal error stays sticky.
				r.Abort(err)
				return r.err
			}
		}
		row, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// Close releases the execution's resources (spill files, deferred frontiers)
// deterministically. It is idempotent: closing twice, or closing after
// exhaustion, is a no-op. After Close, Next reports ErrClosed. A resource-
// release failure (spill-file removal) is reported as a typed ErrSpill.
func (r *Rows) Close() error {
	r.closed = true
	return r.ex.Close()
}

// Abort terminates the execution with err and releases its resources,
// marking any pooled evaluator state unsafe to recycle. Serving layers call
// it after recovering a panic that unwound through Next or a row sink: the
// execution's internal state can no longer be trusted, so its EvalPool
// bundle is discarded instead of recycled (a regular Close would hand the
// possibly-corrupted bundle to the next request). An err that is itself one
// of the clean stops (ErrClosed, ErrCanceled, ErrDeadline, ErrTupleBudget)
// leaves the state trusted and recycles it, as Close would. After Abort, Next
// reports err (sticky). Idempotent; Abort after Close or exhaustion is a
// no-op.
func (r *Rows) Abort(err error) {
	if err == nil {
		err = ErrClosed
	}
	if r.err == nil {
		r.err = err
	}
	r.closed = true
	r.ex.Abort(err)
}

// Stats reports the execution's evaluation counters: tuples popped, deferred
// and reinjected, visited-table population, ψ phases. Multi-conjunct queries
// aggregate over their conjunct evaluators (counters sum; VisitedSize and
// Phases take the maximum). The counters stay readable after exhaustion and
// after Close — they are how a server logs per-request work without reaching
// into internals.
func (r *Rows) Stats() Stats {
	return r.ex.Stats()
}

// Query evaluates a parsed query: Prepare + Exec in one shot, with no
// cancellation and no per-call limits. Servers that run a query repeatedly
// should Prepare once and Exec per request instead.
func (e *Engine) Query(q *Query) (*Rows, error) {
	pq, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return pq.Exec(context.Background(), ExecOptions{})
}

// QueryText parses and evaluates a textual query.
func (e *Engine) QueryText(text string) (*Rows, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return e.Query(q)
}

// QueryTextMode parses a textual query, overrides every conjunct's mode, and
// evaluates it. This is how the study runs the same query in exact, APPROX
// and RELAX variants; it is equivalent to PrepareText + Exec with
// ExecOptions.Mode set.
func (e *Engine) QueryTextMode(text string, mode Mode) (*Rows, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, err
	}
	for i := range q.Conjuncts {
		q.Conjuncts[i].Mode = mode
	}
	return e.Query(q)
}

// Explain renders the evaluation plan for a textual query without running
// it: PrepareText, then PreparedQuery.Explain for an execution with default
// ExecOptions.
func (e *Engine) Explain(text string) (string, error) {
	pq, err := e.PrepareText(text)
	if err != nil {
		return "", err
	}
	return pq.Explain(ExecOptions{})
}
