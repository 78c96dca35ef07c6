// Package core implements Omega's query evaluation layer (paper §3.3–3.4):
// conjunct initialisation (Open), incremental ranked retrieval (GetNext /
// Succ) over the product of a weighted automaton and the data graph, the
// distance-aware and alternation-by-disjunction optimisations of §4.3, and
// the ranked join for multi-conjunct queries.
package core

import (
	"context"
	"errors"
	"fmt"

	"omega/internal/automaton"
	"omega/internal/dstruct"
	"omega/internal/rpq"
)

// ErrTupleBudget is returned when evaluation exceeds Options.MaxTuples. It
// models the out-of-memory failures the paper reports for YAGO queries 4 and
// 5 under APPROX (Figure 10's '?') as a clean, recoverable error.
var ErrTupleBudget = errors.New("core: tuple budget exceeded")

// ErrCanceled is returned when the context governing an execution is
// canceled. It wraps context.Canceled, so errors.Is(err, context.Canceled)
// also holds.
var ErrCanceled = fmt.Errorf("core: evaluation canceled: %w", context.Canceled)

// ErrDeadline is returned when the context governing an execution passes its
// deadline. It wraps context.DeadlineExceeded.
var ErrDeadline = fmt.Errorf("core: evaluation deadline exceeded: %w", context.DeadlineExceeded)

// ErrClosed is returned by Next on an execution whose Close has been called.
var ErrClosed = errors.New("core: execution closed")

// ErrMemBudget is returned when an execution's live resident bytes cross its
// hard memory watermark (ExecOptions.HardMemBytes), or when the serving
// layer's memory broker aborts the execution as the largest-footprint victim
// under global pressure. Unlike the soft watermark — which degrades the
// execution to disk and keeps it streaming — the hard watermark is a typed
// abort through the sticky Rows contract. A pooled evaluator bundle that hit
// it is poisoned, not recycled: the abort fires mid-traversal and the
// structures' high-water capacity is exactly what the budget exists to shed.
var ErrMemBudget = errors.New("core: memory budget exceeded")

// ErrSpill is the typed root of disk I/O failures in spilling executions
// (re-exported from dstruct): every spill create/write/read/remove failure
// surfaces through the sticky-error contract wrapping it.
var ErrSpill = dstruct.ErrSpill

// recyclable reports whether an execution that terminated with err left its
// evaluator state structurally sound. Clean stop conditions — exhaustion,
// Close, cancellation, deadline, the tuple budget — only ever stop pulling
// from intact structures, so their bundles recycle. Everything else (spill
// I/O failures, injected faults, panics surfaced via Abort, unknown errors,
// and deliberately ErrMemBudget — shedding the bundle's high-water capacity
// is the point of the memory budget) may have abandoned a structure
// mid-mutation or be oversized: the bundle is poisoned and must be
// discarded, never returned to the pool.
func recyclable(err error) bool {
	return err == nil ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrTupleBudget)
}

// Term is one endpoint of a conjunct: a variable or a constant node label.
type Term struct {
	IsVar bool
	Name  string // variable name without '?', or the constant's node label
}

// Var returns a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Const returns a constant term.
func Const(label string) Term { return Term{Name: label} }

// String implements fmt.Stringer.
func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Name
	}
	return t.Name
}

// Conjunct is one body atom (X, R, Y) of a CRP query, optionally prefixed by
// APPROX or RELAX (§2).
type Conjunct struct {
	Subject Term
	Expr    *rpq.Expr
	Object  Term
	Mode    automaton.Mode
}

// String implements fmt.Stringer.
func (c Conjunct) String() string {
	prefix := ""
	if c.Mode != automaton.Exact {
		prefix = c.Mode.String() + " "
	}
	return fmt.Sprintf("%s(%s, %s, %s)", prefix, c.Subject, c.Expr, c.Object)
}

// Query is a conjunctive regular path query (§2): head variables projected
// from the join of the body conjuncts.
type Query struct {
	Head      []string
	Conjuncts []Conjunct
}

// Validate checks that the query is well formed: at least one conjunct, and
// every head variable bound in the body.
func (q *Query) Validate() error {
	if len(q.Conjuncts) == 0 {
		return errors.New("core: query has no conjuncts")
	}
	bound := map[string]bool{}
	for _, c := range q.Conjuncts {
		if c.Expr == nil {
			return errors.New("core: conjunct with nil expression")
		}
		if c.Subject.IsVar {
			bound[c.Subject.Name] = true
		}
		if c.Object.IsVar {
			bound[c.Object.Name] = true
		}
	}
	if len(q.Head) == 0 {
		return errors.New("core: query has an empty head")
	}
	for _, h := range q.Head {
		if !bound[h] {
			return fmt.Errorf("core: head variable ?%s not bound in the body", h)
		}
	}
	return nil
}

// Options configures evaluation. The zero value reproduces the paper's
// baseline configuration (unit costs, batches of 100, no optimisations).
type Options struct {
	// Edit costs for APPROX; zero value means unit costs.
	Edit automaton.EditCosts
	// Relax costs for RELAX; zero value means unit costs.
	Relax automaton.RelaxCosts
	// EnableRule2 turns on RELAX rule (ii) (domain/range relaxation),
	// which the paper's study leaves off.
	EnableRule2 bool
	// BatchSize is the number of initial nodes retrieved per coroutine
	// batch in Open's Case 3 (§3.3); 0 means the paper's default of 100. A
	// value above the graph's node count seeds every initial node up front
	// (the ablation of the Open/GetNext coroutines).
	BatchSize int
	// DistanceAware enables §4.3's "retrieving answers by distance": a
	// cost cap ψ stepped by the smallest operation cost φ. Tuples that
	// exceed the current ψ are parked in a deferred frontier and re-injected
	// into the same live evaluator when ψ is raised, so no phase recomputes
	// the work of its predecessors (the paper's description restarts
	// evaluation from scratch at each increment; see DistanceRestart).
	DistanceAware bool
	// DistanceRestart backs the ψ-phase driver with the paper's naive restart
	// behaviour instead of the resumable evaluators: a fresh evaluator per
	// (branch, phase), a single branch in plain distance-aware mode. The
	// ranked emission is identical to the resumable driver's; this exists for
	// differential testing and benchmarking, not production use — the
	// RefDict pattern applied to ψ-stepping.
	DistanceRestart bool
	// MaxPsi caps the ψ stepping (distance-aware mode only); 0 means 16·φ.
	// Answers beyond MaxPsi are not returned in distance-aware mode.
	MaxPsi int32
	// Disjunction enables §4.3's "replacing alternation by disjunction":
	// a top-level alternation is decomposed into sub-automata evaluated
	// distance-phase by distance-phase, cheapest-first.
	Disjunction bool
	// MaxTuples bounds the number of tuples ever added to D_R; evaluation
	// returns ErrTupleBudget beyond it. 0 means unlimited.
	MaxTuples int
	// NoFinalFirst disables the final-tuples-first pop policy (ablation;
	// the paper credits the policy with earlier answers and fewer
	// memory exhaustions, §3.3).
	NoFinalFirst bool
	// NoSuccCache disables reuse of NeighboursByEdge results across
	// identical consecutive labels in Succ (ablation of the U cache, §3.4).
	NoSuccCache bool
	// RareSide (EXTENSION; the paper lists "leveraging rare labels as in
	// [Koschmieder & Leser]" as future work) evaluates a (?X, R, ?Y)
	// conjunct from whichever end of R has fewer candidate start nodes,
	// using the reversed automaton when the object side is rarer.
	RareSide bool
	// Rewrite (EXTENSION; the paper lists query rewriting as future work)
	// applies language-preserving algebraic simplification to each
	// conjunct's path expression before automaton construction.
	Rewrite bool
	// SpillThreshold (EXTENSION; the paper's future-work "disk-based data
	// structures to guarantee termination of APPROX queries with large
	// intermediate results"): when positive, D_R keeps at most this many
	// tuples resident and spills cold distance buckets to temporary files.
	SpillThreshold int
	// SpillDir overrides the directory for spill files (default: the
	// system temporary directory).
	SpillDir string
	// RefDict backs D_R with the naive reference dictionary (hash map plus
	// binary heap) instead of the bucket queue. Both implementations emit
	// identical ranked sequences; this exists for differential testing and
	// benchmarking, not production use.
	RefDict bool
	// ReorderConjuncts builds the query tree by greedily ordering
	// conjuncts: constant-anchored conjuncts first, then conjuncts
	// connected to already-bound variables (§3's query-tree construction;
	// the paper does not specify its ordering, so this is our planner).
	ReorderConjuncts bool
	// Backend is the engine-level default evaluation backend: BackendAuto
	// (zero value) lets the planner pick per conjunct — the bulk
	// set-semantics engine for exhaustive zero-cost exact scans with a
	// corpus-scale seed population, ranked GetNext otherwise — while
	// BackendRanked/BackendBulk pin the choice. ExecOptions.Backend
	// overrides it per execution. Both backends return identical answer
	// sets for eligible queries; only the (distance-0) emission order
	// differs.
	Backend Backend
	// Parallelism is the engine-level default worker count per execution:
	// bulk lane blocks fan across this many goroutines, eligible ranked
	// conjuncts shard their seed population across this many per-shard
	// evaluators merged back in the serial emission order, and
	// multi-conjunct executions prefetch each conjunct's stream
	// concurrently. Emission stays byte-identical to serial at any value.
	// 0 or 1 means serial; values are clamped to [1, 64].
	// ExecOptions.Parallelism overrides it per execution.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Edit == (automaton.EditCosts{}) {
		o.Edit = automaton.DefaultEditCosts()
	}
	if o.Relax == (automaton.RelaxCosts{}) {
		o.Relax = automaton.DefaultRelaxCosts()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 100
	}
	if o.Parallelism > maxParallelism {
		o.Parallelism = maxParallelism
	}
	return o
}

// phi returns the smallest non-zero operation cost for the mode (§4.3's φ).
func (o Options) phi(mode automaton.Mode) int32 {
	switch mode {
	case automaton.Approx:
		return o.Edit.MinCost()
	case automaton.Relax:
		return o.Relax.MinCost()
	case automaton.Flex:
		e, r := o.Edit.MinCost(), o.Relax.MinCost()
		if r < e {
			return r
		}
		return e
	default:
		return 1
	}
}

// Answer is one conjunct answer: bindings for the conjunct's subject and
// object, at the given distance from the original conjunct.
type Answer = dstruct.Answer

// Iterator is the one contract of every conjunct driver (the paper's Open,
// then GetNext until exhausted): Next yields answers in non-decreasing
// distance, and once it reports ok=false or an error, further calls keep doing
// so (errors are sticky). Close releases the driver's resources — pooled
// evaluator state recycles — and reports any release failure; it is
// idempotent, and after it Next answers ErrClosed, or the terminal error the
// driver already had. Abort ends the driver with err as its sticky error,
// discarding pooled state unless recyclable(err) says it is intact. Stats is
// readable at any point, including after the driver has ended.
type Iterator interface {
	Next() (Answer, bool, error)
	Close() error
	Abort(err error)
	Stats() Stats
}

// Stats exposes evaluation counters for the performance study.
type Stats struct {
	TuplesAdded   int
	TuplesPopped  int
	VisitedSize   int
	Phases        int // distance-aware ψ phases (1 when not distance-aware)
	NeighborCalls int
	CacheHits     int // Succ U-cache reuses
	// Deferred counts tuples parked in the deferred frontier because their
	// distance exceeded the ψ of the phase that generated them; Reinjected
	// counts deferred tuples re-admitted into D_R at a later phase. Both are
	// zero outside the incremental distance-aware mode — in particular, a
	// distance-aware run with Reinjected == 0 but more than one phase has
	// silently fallen back to restart-style recomputation.
	Deferred   int
	Reinjected int
	// MemPeakBytes is the high-water mark of the execution's accounted
	// resident bytes (byte accounting samples the dstruct footprints, so the
	// figure is an estimate trailing real usage by at most one sample
	// period). Every run has a gauge, so it is populated for every driver
	// that owns accounted structures.
	MemPeakBytes int64
	// SpillEscalations counts soft-watermark responses: each time the
	// execution crossed SoftMemBytes and reacted by arming or tightening disk
	// spilling on its deferred frontier or spill dictionary.
	SpillEscalations int
	// Backend names the evaluation engine(s) the execution ran on: "ranked",
	// "bulk", or "mixed" when a multi-conjunct execution split. Empty from
	// iterators below the execution layer that predate backend selection.
	Backend string
	// SpillIONanos / SpillIOBytes account time spent in and bytes moved
	// through spill-file I/O (writes, loads, and removals on the spill
	// dictionary and the deferred frontier). Zero for executions that never
	// spilled.
	SpillIONanos int64
	SpillIOBytes int64
	// QueueWaitNanos, CompileNanos and TTFRNanos are request-level timings
	// stamped by the layer that owns each phase: the scheduler (admission →
	// first worker turn), the plan cache (compile on miss; 0 on hit), and the
	// execution (first Next → first row). They are not summed across
	// conjuncts — each is a property of the whole request.
	QueueWaitNanos int64
	CompileNanos   int64
	TTFRNanos      int64
	// Parallelism is the resolved worker count the execution ran with
	// (1 = serial; a property of the whole request, not summed). Shards
	// counts the per-shard ranked evaluators and parallel bulk workers that
	// actually engaged, summed across conjuncts — zero when every conjunct
	// took the serial path despite Parallelism > 1 (ineligible shape or a
	// seed population too small to shard). MergeWaitNanos is time the k-way
	// merge and block-reorder consumers spent blocked on worker channels.
	Parallelism    int
	Shards         int
	MergeWaitNanos int64
}

// add folds o into s, the one way counters of several evaluators become one
// Stats: the additive counters sum, and MemPeakBytes takes the maximum,
// because every evaluator of an execution reports the peak of the one gauge
// they share. VisitedSize, Phases and Backend stay with the caller — shards
// sum visited sizes while branches and conjuncts take the largest — and the
// request-level timings and Parallelism are never folded.
func (s *Stats) add(o Stats) {
	s.TuplesAdded += o.TuplesAdded
	s.TuplesPopped += o.TuplesPopped
	s.NeighborCalls += o.NeighborCalls
	s.CacheHits += o.CacheHits
	s.Deferred += o.Deferred
	s.Reinjected += o.Reinjected
	s.SpillEscalations += o.SpillEscalations
	s.SpillIONanos += o.SpillIONanos
	s.SpillIOBytes += o.SpillIOBytes
	s.Shards += o.Shards
	s.MergeWaitNanos += o.MergeWaitNanos
	s.MemPeakBytes = max(s.MemPeakBytes, o.MemPeakBytes)
}
