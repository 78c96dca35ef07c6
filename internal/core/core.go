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
// under global pressure. It is a typed abort through the sticky Rows
// contract, and the one bounded failure of an execution that outgrows
// memory. A pooled evaluator bundle that hit it is poisoned, not recycled:
// the abort fires mid-traversal and the structures' high-water capacity is
// exactly what the budget exists to shed.
var ErrMemBudget = errors.New("core: memory budget exceeded")

// ErrTooManyTransitions is returned by compilation for a conjunct whose
// automaton the evaluator cannot run: one with costed transitions (APPROX,
// RELAX, FLEX) needs a continuation slot per transition and neighbour
// segment, two per edge label of the graph, and a slot is 24 bits, so
// transitions × 2 × labels must not exceed 2^24 (dstruct.ContSlots). On a
// graph with 100 edge labels that allows 83 886 transitions; EXACT automata
// make no continuations and are not bounded.
var ErrTooManyTransitions = errors.New("core: automaton has too many transitions for its continuation slots")

// ErrDistanceRange is returned by compilation for a conjunct whose distances
// could pass the int32 range over its graph: a distance sums the costs along
// a cheapest path, which visits each (node, state) configuration at most
// once (see checkDistances). Only costs near maxCost on a large graph meet it.
var ErrDistanceRange = errors.New("core: costs too large for the graph: distances could overflow")

// recyclable reports whether an execution that terminated with err left its
// evaluator state structurally sound. Clean stop conditions — exhaustion,
// Close, cancellation, deadline, the tuple budget — only ever stop pulling
// from intact structures, so their bundles recycle. Everything else (injected
// faults, panics surfaced via Abort, unknown errors, and deliberately
// ErrMemBudget — shedding the bundle's high-water capacity is the point of
// the memory budget) may have abandoned a structure mid-mutation or be
// oversized: the bundle is poisoned and must be discarded, never returned to
// the pool.
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

// Options configures evaluation: everything that shapes the compiled plan,
// fixed at Prepare. What varies per run lives in ExecOptions. The zero value
// reproduces the paper's baseline configuration (unit costs, batches of 100,
// no optimisations).
type Options struct {
	// Edit costs for APPROX; zero value means unit costs. Every cost, here
	// and in Relax, lies in 0..65 536.
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
	// cost cap ψ stepped by the gcd of the operation costs (the paper's φ,
	// the smallest cost, when every cost is a multiple of it). Tuples that
	// exceed the current ψ are parked in D_R above a pop ceiling ψ and
	// admitted by the same live evaluator when ψ is raised, so no phase recomputes
	// the work of its predecessors (the paper's description restarts
	// evaluation from scratch at each increment).
	DistanceAware bool
	// MaxPsi caps the ψ stepping (distance-aware mode only); 0 means 16·φ,
	// φ the smallest positive operation cost of the mode (1 when none is).
	// Answers beyond MaxPsi are not returned in distance-aware mode.
	MaxPsi int32
	// Disjunction enables §4.3's "replacing alternation by disjunction":
	// a top-level alternation is decomposed into sub-automata evaluated
	// distance-phase by distance-phase, cheapest-first.
	Disjunction bool
	// MaxTuples is a budget per evaluator on the tuples it adds to D_R —
	// every tuple or continuation pushed or admitted by a raised ψ, and every successor
	// a continuation yields (see Stats.TuplesAdded) — so it bounds the
	// successors materialised, not the ones a continuation still stands for.
	// An evaluator that goes past it ends the execution with ErrTupleBudget.
	// 0 means unlimited. It does not bound the execution: each conjunct of a
	// join and each branch under Disjunction runs its own evaluator with the
	// whole budget, and entries parked above the ψ ceiling count only once
	// admitted, a ψ phase at a time. So an execution may add several times
	// MaxTuples, and hold more, before it fails, or finish without failing.
	// ExecOptions.MaxTuples overrides it per run.
	MaxTuples int
	// RareSide (EXTENSION; the paper lists "leveraging rare labels as in
	// [Koschmieder & Leser]" as future work) evaluates a (?X, R, ?Y)
	// conjunct from whichever end of R has fewer candidate start nodes,
	// using the reversed automaton when the object side is rarer.
	RareSide bool
}

// maxCost is the largest operation cost Prepare accepts. A compiled cost sums
// at most one cost per automaton state (ε-removal folds deletion chains), so
// under it the automaton's own sums stay far inside int32; checkDistances
// then bounds the sums evaluation makes over a given graph.
const maxCost = 1 << 16

// validate rejects negative operation costs, and costs above maxCost, naming
// the field. ε-removal and ranked emission assume every cost is
// non-negative; with a negative one, a distance is no longer the cheapest
// path's, and with a negative insertion cost no distance is bounded below.
// Distances are int32 sums of costs, so an oversized cost would wrap them.
func (o Options) validate() error {
	for _, c := range []struct {
		field string
		cost  int32
	}{
		{"Edit.Insert", o.Edit.Insert},
		{"Edit.Delete", o.Edit.Delete},
		{"Edit.Substitute", o.Edit.Substitute},
		{"Relax.Beta", o.Relax.Beta},
		{"Relax.Gamma", o.Relax.Gamma},
	} {
		if c.cost < 0 {
			return fmt.Errorf("core: Options.%s is %d: costs must not be negative", c.field, c.cost)
		}
		if c.cost > maxCost {
			return fmt.Errorf("core: Options.%s is %d: costs must be at most %d", c.field, c.cost, maxCost)
		}
	}
	return nil
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
	return o
}

// phi returns the smallest positive operation cost of the mode (§4.3's φ),
// over all five for FLEX (once defaults apply, Edit and Relax each hold a
// positive one), and 1 for EXACT.
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

// psiStep returns the grid step of the distance-aware ψ: the gcd of the
// mode's operation costs. Every distance is a sum of them — final weights and
// RELAX annotations (k·β) included — so it lies on this grid, and each phase
// admits one attainable distance. With costs that are multiples of φ the
// step is φ, the paper's "ψ += φ" (§4.3).
func (o Options) psiStep(mode automaton.Mode) int32 {
	var costs []int32
	switch mode {
	case automaton.Approx:
		costs = []int32{o.Edit.Insert, o.Edit.Delete, o.Edit.Substitute}
	case automaton.Relax:
		costs = []int32{o.Relax.Beta, o.Relax.Gamma}
	case automaton.Flex:
		costs = []int32{o.Edit.Insert, o.Edit.Delete, o.Edit.Substitute, o.Relax.Beta, o.Relax.Gamma}
	}
	var g int32
	for _, c := range costs {
		for c > 0 {
			g, c = c, g%c
		}
	}
	return max(g, 1)
}

// Answer is one conjunct answer: bindings for the conjunct's subject and
// object, at the given distance from the original conjunct.
type Answer = dstruct.Answer

// Iterator is the one contract of every conjunct driver (the paper's Open,
// then GetNext until exhausted): Next yields answers in non-decreasing
// distance, and once it reports ok=false or an error, further calls keep doing
// so (errors are sticky). Close releases the driver's resources — pooled
// evaluator state recycles; it is idempotent, and after it Next answers
// ErrClosed, or the terminal error the driver already had. Abort ends the
// driver with err as its sticky error, discarding pooled state unless
// recyclable(err) says it is intact. Stats is readable at any point,
// including after the driver has ended.
type Iterator interface {
	Next() (Answer, bool, error)
	Close() error
	Abort(err error)
	Stats() Stats
}

// Stats exposes evaluation counters for the performance study.
type Stats struct {
	// TuplesAdded counts entries entering D_R — a tuple or continuation
	// pushed, or admitted from above the ψ ceiling at a later phase — plus
	// one per successor a continuation yields; one continuation enters for a
	// whole run of same-cost transitions. TuplesPopped counts pops, a
	// continuation's pop being the one of the successor it yields, so a
	// parked continuation dropped at its pop with no unvisited successor
	// left counts none. So TuplesPopped ≤ TuplesAdded.
	TuplesAdded  int
	TuplesPopped int
	// VisitedSize is the triples in visited_R — the Case 1 seed bitmap or the
	// Case 3 table — when the run ended.
	VisitedSize int
	// Phases counts distance-aware ψ phases (1 when not distance-aware); a
	// resumed phase that popped nothing is folded like a skipped ψ and does
	// not count.
	Phases int
	// NeighborCalls counts the transitions Succ expanded: one per compiled
	// transition out of each expanded configuration, cost-0 or costed, each
	// member of a run included, whose neighbour segments Succ or the run's
	// continuation walks.
	NeighborCalls int
	// Deferred counts entries (tuples and continuations, one per run) parked
	// in D_R above its pop ceiling because their distance exceeded the ψ of
	// the phase that generated them; Reinjected counts parked entries admitted when a
	// later phase raised the ceiling. Both are zero outside the incremental
	// distance-aware mode — in particular, a distance-aware run with
	// Reinjected == 0 but more than one phase has silently fallen back to
	// restart-style recomputation.
	Deferred   int
	Reinjected int
	// MemPeakBytes is the high-water mark of the execution's accounted
	// resident bytes (byte accounting samples the dstruct footprints, so the
	// figure is an estimate trailing real usage by at most one sample
	// period). Every run has a gauge, so it is populated for every driver
	// that owns accounted structures.
	MemPeakBytes int64
	// Backend names the evaluation engine(s) the execution ran on: "ranked",
	// "bulk", or "mixed" when a multi-conjunct execution split. Empty from
	// iterators below the execution layer that predate backend selection.
	Backend string
	// QueueWaitNanos, CompileNanos and TTFRNanos are request-level timings
	// stamped by the layer that owns each phase: the scheduler (admission →
	// taking a slot), the plan cache (compile on miss; 0 on hit), and the
	// execution (first Next → first row). They are not summed across
	// conjuncts — each is a property of the whole request.
	QueueWaitNanos int64
	CompileNanos   int64
	TTFRNanos      int64
	// PrepOps and MaxDelayOps are the enumeration delay in tuple operations,
	// the adds and pops counted in TuplesAdded and TuplesPopped: PrepOps
	// before the first row the execution returned, MaxDelayOps the most
	// between two consecutive rows (0 until there are two). They are exact
	// and repeat on any machine for every execution; a bulk conjunct adds and
	// pops nothing. PrepOps is a property of the whole request and is never
	// folded.
	PrepOps     int
	MaxDelayOps int
}

// add folds o into s, the one way counters of several evaluators become one
// Stats: the additive counters sum, MemPeakBytes takes the maximum, because
// every evaluator of an execution reports the peak of the one gauge they
// share, and so does MaxDelayOps. VisitedSize, Phases and Backend stay with
// the caller — branches and conjuncts take the largest — and the
// request-level timings and PrepOps are never folded.
func (s *Stats) add(o Stats) {
	s.TuplesAdded += o.TuplesAdded
	s.TuplesPopped += o.TuplesPopped
	s.NeighborCalls += o.NeighborCalls
	s.Deferred += o.Deferred
	s.Reinjected += o.Reinjected
	s.MemPeakBytes = max(s.MemPeakBytes, o.MemPeakBytes)
	s.MaxDelayOps = max(s.MaxDelayOps, o.MaxDelayOps)
}
