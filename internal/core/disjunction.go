package core

import (
	"sort"

	"omega/internal/dstruct"
	"omega/internal/obs"
)

// This file implements both optimisations of §4.3 as one ψ-phase driver.
//
// "Retrieving answers by distance": a current maximum cost ψ starts at 0; no
// tuple with a larger cost is ever added to or removed from D_R. When more
// answers are needed, ψ is incremented by φ (the smallest edit/relaxation
// cost), bounded by MaxPsi. Phase ψ finds every answer of distance ≤ ψ, so
// answers new to a phase have distance in (ψ−φ, ψ]; with uniform operation
// costs (the study's configuration) that band is the single value ψ, and the
// stream stays globally non-decreasing.
//
// "Replacing alternation by disjunction": the NFA for R = R1|R2|… is
// decomposed into sub-automata NFA_i, each run to exhaustion at every ψ.
// Distance-0 answers are computed by evaluating the sub-automata in default
// order, recording the answer count n_{0,i} per sub-automaton; the answers at
// distance kφ are then computed by evaluating the sub-automata in increasing
// n_{(k−1)φ,i} order, so cheap branches run first and a caller that stops
// after the top k answers never pays for the expensive branches.
//
// The first is the second over a single branch, so one driver (disjunction)
// runs both: n ≥ 1 branches, answers streaming out as each branch produces
// them. The paper describes each ψ increment as a restart from the beginning,
// which redoes all the work of every earlier phase. The driver instead keeps
// ONE resumable evaluator per branch: over-ψ tuples park in the branch's
// deferred frontier and each phase step re-injects the newly admissible ones
// into the warm D_R / visited table / answer registry — every tuple is popped
// at most once across all phases, and phases that would re-admit nothing
// anywhere are skipped by stepping ψ straight to the next populated φ-grid
// point. The pop trace restricted to distances ≤ ψ is identical either way,
// so ranked emission is byte-identical to the fresh-evaluator-per-(branch,
// phase) driver retained behind Options.DistanceRestart as the differential
// reference (the RefDict pattern).

// newDisjunction returns the ψ-phase driver the run selects over the plan's
// automata (one per alternand when decomposed, else the single automaton of a
// distance-aware conjunct): the resumable per-branch driver by default, the
// restart-per-phase reference under Options.DistanceRestart.
func newDisjunction(plan *conjunctPlan, r *run, phi, maxPsi int32) Iterator {
	if r.opts.DistanceRestart {
		return newRestartDisjunction(plan, r, phi, maxPsi)
	}
	n := len(plan.auts)
	d := &disjunction{
		r:          r,
		phi:        phi,
		maxPsi:     maxPsi,
		evals:      make([]*evaluator, n),
		prevCounts: make([]int, n),
		counts:     make([]int, n),
		order:      make([]int, n),
		phases:     1,
		phaseSpan:  obs.NoSpan,
	}
	// Every branch is instantiated here, at ψ = 0, rather than on its first
	// turn: phase 0 touches every branch anyway, and taking pooled bundles at
	// open keeps which bundle a conjunct gets independent of how a join
	// interleaves its conjuncts.
	for i := range d.evals {
		d.evals[i] = plan.newEvaluator(r, i, 0)
		makeResumable(d.evals[i], phi, maxPsi)
	}
	if n > 1 {
		d.emitted = dstruct.NewU64Set()
	}
	d.startPhase()
	return d
}

// disjunction is the resumable driver: one live evaluator per branch, shared
// across every ψ phase.
type disjunction struct {
	r      *run
	phi    int32
	maxPsi int32

	psi        int32
	evals      []*evaluator // per branch
	prevCounts []int        // new answers per branch in the previous phase
	counts     []int        // new answers per branch in the current phase
	order      []int
	oi         int
	// emitted de-duplicates across branches; nil with a single branch, whose
	// own answer registry stays warm across phases and never re-emits a pair.
	emitted *dstruct.U64Set
	phases  int
	done    bool
	failed  error

	// phaseSpan is the open psi_phase trace span of the current resumed phase
	// (NoSpan for phase 1, which the enclosing conjunct span already covers,
	// and always NoSpan when the execution is untraced).
	phaseSpan obs.SpanID
}

// makeResumable arms ev with a deferred frontier so the driver can resume it
// across phases instead of restarting evaluation.
func makeResumable(ev *evaluator, phi, maxPsi int32) {
	ev.resumable = true
	opts := &ev.r.opts
	switch {
	case opts.SpillThreshold > 0:
		// The user asked for bounded resident memory; the parked frontier
		// must honour it too, not just D_R.
		df, err := dstruct.NewDeferredSpill(opts.SpillThreshold, opts.SpillDir, opts.NoFinalFirst)
		if err != nil && ev.failed == nil {
			ev.failed = err
		}
		if err != nil {
			df = dstruct.NewDeferred(opts.NoFinalFirst) // placeholder; evaluation fails immediately
		}
		ev.deferred = df
	case ev.state != nil:
		// Pooled execution: the bundle's frontier was Reset at acquisition.
		ev.deferred = ev.state.deferred
	default:
		ev.deferred = dstruct.NewDeferred(opts.NoFinalFirst)
	}
	// The last reachable phase is the first φ-grid point ≥ MaxPsi (the
	// reference stops stepping once ψ ≥ MaxPsi, so it still runs that one).
	// Tuples beyond it can never be re-admitted and are not worth parking.
	limit := (int64(maxPsi) + int64(phi) - 1) / int64(phi) * int64(phi)
	if limit > int64(1)<<31-1 {
		limit = int64(1)<<31 - 1
	}
	ev.deferLimit = int32(limit)
}

// startPhase orders the branches by the previous phase's answer counts
// (stable, so the first phase and ties use default order).
func (d *disjunction) startPhase() {
	for i := range d.order {
		d.order[i] = i
	}
	sort.SliceStable(d.order, func(i, j int) bool {
		return d.prevCounts[d.order[i]] < d.prevCounts[d.order[j]]
	})
	clear(d.counts)
	d.oi = 0
}

// fail records the terminal error and releases every branch — by Abort when
// the error is not a clean stop, so the bundles of the branches that did not
// themselves fail are discarded with it (shedding memory is what an
// ErrMemBudget is for).
func (d *disjunction) fail(err error) error {
	if d.failed == nil {
		d.failed = err
	}
	if recyclable(err) {
		d.finish()
	} else {
		d.Abort(err)
	}
	return d.failed
}

// stop marks the stream over and ends the open phase span (nil-trace safe,
// and a span ended twice keeps its first end); the caller releases the
// branches.
func (d *disjunction) stop() {
	d.done = true
	d.r.trace.End(d.phaseSpan)
}

// finish ends the stream and releases every branch: the evaluators are
// resumable, so the driver owns their finish.
func (d *disjunction) finish() {
	d.stop()
	for _, ev := range d.evals {
		ev.finish()
	}
}

// Next streams the next answer.
func (d *disjunction) Next() (Answer, bool, error) {
	for {
		if d.failed != nil {
			return Answer{}, false, d.failed
		}
		if d.done {
			return Answer{}, false, nil
		}
		if d.oi >= len(d.order) {
			// Phase complete: step ψ to the next φ-grid point that re-admits
			// at least one parked tuple in some branch, or stop.
			next, skipped, more := d.nextPsi()
			if !more {
				d.finish()
				continue
			}
			copy(d.prevCounts, d.counts)
			if skipped {
				// The grid point just before `next` was provably empty for
				// every branch; the restart reference would have run it,
				// found nothing, and ordered the following phase by its
				// all-zero counts. Reproduce that ordering.
				for i := range d.prevCounts {
					d.prevCounts[i] = 0
				}
			}
			d.psi = next
			d.r.trace.End(d.phaseSpan)
			d.phaseSpan = d.r.trace.Start(d.r.span, obs.SpanPsiPhase)
			d.r.trace.SetAttr(d.phaseSpan, "psi", int64(next))
			for _, ev := range d.evals {
				ev.resume(next)
			}
			d.phases++
			d.startPhase()
			continue
		}
		idx := d.order[d.oi]
		ev := d.evals[idx]
		a, ok, err := ev.Next()
		if err != nil {
			return Answer{}, false, d.fail(err)
		}
		if !ok {
			// A spilling frontier that failed has silently dropped parked
			// tuples; continuing would emit an incomplete tail.
			if err := ev.deferred.Err(); err != nil {
				return Answer{}, false, d.fail(err)
			}
			d.oi++
			continue
		}
		if d.emitted != nil && !d.emitted.Add(packPair(a.Src, a.Dst)) {
			continue // found by an earlier branch
		}
		d.counts[idx]++
		return a, true, nil
	}
}

// nextPsi returns the next ψ-grid value that re-admits at least one deferred
// tuple in some branch, whether any intermediate grid point was skipped, and
// whether stepping may continue. The restart reference steps one φ at a time
// and stops once ψ ≥ MaxPsi; a grid point ψ+kφ is therefore reachable only
// while every earlier point stayed below the cap.
func (d *disjunction) nextPsi() (int32, bool, bool) {
	if d.psi >= d.maxPsi {
		return 0, false, false
	}
	var m int32
	any := false
	for _, ev := range d.evals {
		if md, ok := ev.deferred.MinDistance(); ok && (!any || md < m) {
			m, any = md, true
		}
	}
	if !any {
		return 0, false, false
	}
	phi, psi := int64(d.phi), int64(d.psi)
	steps := (int64(m) - psi + phi - 1) / phi // ≥ 1: every deferred tuple exceeds ψ
	maxSteps := (int64(d.maxPsi) - psi + phi - 1) / phi
	if steps > maxSteps {
		return 0, false, false // the nearest deferred tuple lies beyond the cap
	}
	return int32(psi + steps*phi), steps > 1, true
}

// Close releases every branch evaluator's resources (D_R and the deferred
// frontier, including any spill files) deterministically.
func (d *disjunction) Close() error {
	d.stop()
	d.failed = closedErr(d.failed)
	var first error
	for _, ev := range d.evals {
		if err := ev.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Abort terminates the driver, poisoning every branch evaluator's pooled
// state.
func (d *disjunction) Abort(err error) {
	d.stop()
	d.failed = abortErr(d.failed, err)
	for _, ev := range d.evals {
		ev.Abort(err)
	}
}

// Stats implements Iterator.
func (d *disjunction) Stats() Stats {
	s := Stats{Phases: d.phases}
	for _, ev := range d.evals {
		addBranch(&s, ev)
	}
	return s
}

// addBranch folds one branch evaluator's counters into s. Branches run one
// after the other, so the visited figure is the largest, not the sum.
func addBranch(s *Stats, ev *evaluator) {
	es := ev.Stats()
	s.add(es)
	s.VisitedSize = max(s.VisitedSize, es.VisitedSize)
}

// restartDisjunction is the paper's naive driver, retained behind
// Options.DistanceRestart as the differential reference: every (branch,
// phase) pair builds a fresh evaluator and re-runs evaluation from the
// beginning, with the cross-phase emitted-set suppressing answers already
// returned by earlier phases or branches.
type restartDisjunction struct {
	plan *conjunctPlan
	r    *run

	phi    int32
	maxPsi int32

	psi        int32
	prevCounts []int // answers per sub in the previous phase
	counts     []int // answers per sub in the current phase
	order      []int
	oi         int
	cur        *evaluator
	emitted    *dstruct.U64Set
	anyPruned  bool
	done       bool
	failed     error
	stats      Stats
}

func newRestartDisjunction(plan *conjunctPlan, r *run, phi, maxPsi int32) *restartDisjunction {
	d := &restartDisjunction{
		plan:       plan,
		r:          r,
		phi:        phi,
		maxPsi:     maxPsi,
		prevCounts: make([]int, len(plan.auts)),
		emitted:    dstruct.NewU64Set(),
	}
	d.startPhase()
	return d
}

// startPhase orders the sub-automata by the previous phase's answer counts
// (stable, so the first phase and ties use default order).
func (d *restartDisjunction) startPhase() {
	n := len(d.plan.auts)
	d.order = make([]int, n)
	for i := range d.order {
		d.order[i] = i
	}
	sort.SliceStable(d.order, func(i, j int) bool {
		return d.prevCounts[d.order[i]] < d.prevCounts[d.order[j]]
	})
	d.counts = make([]int, n)
	d.oi = 0
	d.cur = nil
	d.anyPruned = false
	d.stats.Phases++
}

// Next streams the next answer.
func (d *restartDisjunction) Next() (Answer, bool, error) {
	for {
		if d.failed != nil || d.done {
			return Answer{}, false, d.failed
		}
		if d.cur == nil {
			if d.oi >= len(d.order) {
				// Phase complete: stop if nothing was pruned anywhere (no
				// higher ψ can add answers) or the cap is reached.
				d.prevCounts = d.counts
				if !d.anyPruned || d.psi >= d.maxPsi {
					d.done = true
					continue
				}
				d.psi += d.phi
				d.startPhase()
				continue
			}
			d.cur = d.plan.newEvaluator(d.r, d.order[d.oi], d.psi)
		}
		a, ok, err := d.cur.Next()
		if err != nil {
			d.failed = err
			return Answer{}, false, err
		}
		if !ok {
			if d.cur.pruned {
				d.anyPruned = true
			}
			addBranch(&d.stats, d.cur)
			d.cur = nil // folded in; clearing prevents Stats double-counting
			d.oi++
			continue
		}
		if !d.emitted.Add(packPair(a.Src, a.Dst)) {
			continue // found in an earlier phase or by an earlier branch
		}
		d.counts[d.order[d.oi]]++
		return a, true, nil
	}
}

// Close releases the current evaluator, if one is live.
func (d *restartDisjunction) Close() error {
	d.failed = closedErr(d.failed)
	if d.cur != nil {
		return d.cur.Close()
	}
	return nil
}

// Abort terminates the driver, poisoning the live evaluator's pooled state.
func (d *restartDisjunction) Abort(err error) {
	d.failed = abortErr(d.failed, err)
	if d.cur != nil {
		d.cur.Abort(err)
	}
}

// Stats implements Iterator.
func (d *restartDisjunction) Stats() Stats {
	s := d.stats
	if d.cur != nil {
		addBranch(&s, d.cur)
	}
	return s
}
