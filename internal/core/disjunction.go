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
// answers are needed, ψ is raised by one grid step, bounded by MaxPsi. Phase ψ
// finds every answer of distance ≤ ψ, so answers new to a phase have distance
// in (ψ−step, ψ]. The paper steps by φ, the smallest operation cost (§4.3);
// this driver steps by the gcd of the operation costs instead (see
// Options.psiStep). Every distance is a sum of operation costs, so it lies on
// that grid and a phase's band holds one attainable distance: the branches
// of a phase, which run one after the other, then never emit a pair at ψ that
// another branch reaches more cheaply in the same band, and the stream stays
// globally non-decreasing. With uniform costs (the study's configuration) the
// gcd is φ and nothing changes.
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
// ONE resumable evaluator per branch: over-ψ tuples park in the branch's D_R
// above a pop ceiling ψ and each phase step raises the ceiling, re-admitting
// the newly admissible ones next to the warm visited set and answer
// registry — every tuple is popped at most once across all phases, and
// phases that would re-admit nothing anywhere are skipped by stepping ψ
// straight to the next populated grid point (a phase whose admitted entries
// were all continuations with nothing left to yield is folded the same way,
// once it has dropped them). The pop trace restricted to
// distances ≤ ψ is identical either way, so ranked emission is byte-identical
// to the fresh-evaluator-per-(branch, phase) driver that the package's tests
// keep as the differential reference (restart_test.go).

// newDisjunction returns the resumable per-branch ψ-phase driver over the
// plan's automata (one per alternand when decomposed, else the single
// automaton of a distance-aware conjunct).
func newDisjunction(plan *conjunctPlan, r *run, step, maxPsi int32) *disjunction {
	n := len(plan.auts)
	d := &disjunction{
		r:          r,
		step:       step,
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
		makeResumable(d.evals[i], step, maxPsi)
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
	step   int32 // the ψ grid step
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
	// phasePops is the branches' TuplesPopped when the current phase
	// started; a resumed phase that ends on the same figure is folded.
	phasePops int
	done      bool
	failed    error

	// phaseSpan is the open psi_phase trace span of the current resumed phase
	// (NoSpan for phase 1, which the enclosing conjunct span already covers,
	// and always NoSpan when the execution is untraced). A folded phase's
	// span runs on into the next phase, so there is one per counted resumed
	// phase, plus one when the stream ends on a folded phase.
	phaseSpan obs.SpanID
}

// makeResumable sets ev's D_R ceiling to ψ = 0 so the driver can resume it
// across phases instead of restarting evaluation.
func makeResumable(ev *evaluator, step, maxPsi int32) {
	ev.resumable = true
	ev.dr.SetCeiling(0)
	// The last reachable phase is the first grid point ≥ MaxPsi (the
	// reference stops stepping once ψ ≥ MaxPsi, so it still runs that one).
	// Tuples beyond it can never be re-admitted and are not worth parking.
	limit := (int64(maxPsi) + int64(step) - 1) / int64(step) * int64(step)
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
			// Phase complete. A resumed phase in which no branch popped
			// anything only dropped parked continuations with no unvisited
			// successor left: it is folded as an empty grid point, uncounted,
			// and its span runs on into the next phase. Its answer counts
			// are all zero, so it orders the next phase as a skipped grid
			// point would.
			empty := d.phases > 1 && d.popped() == d.phasePops
			if empty {
				d.phases--
			}
			// Step ψ to the next grid point that re-admits at least one
			// parked entry in some branch, or stop.
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
			if !empty {
				d.r.trace.End(d.phaseSpan)
				d.phaseSpan = d.r.trace.Start(d.r.span, obs.SpanPsiPhase)
			}
			d.r.trace.SetAttr(d.phaseSpan, "psi", int64(next))
			for _, ev := range d.evals {
				ev.resume(next)
			}
			d.phases++
			d.phasePops = d.popped()
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

// popped sums the branches' pops.
func (d *disjunction) popped() int {
	n := 0
	for _, ev := range d.evals {
		n += ev.stats.TuplesPopped
	}
	return n
}

// nextPsi returns the next ψ-grid value that re-admits at least one parked
// tuple in some branch, whether any intermediate grid point was skipped, and
// whether stepping may continue. The restart reference steps one grid step at
// a time and stops once ψ ≥ MaxPsi; a grid point ψ+k·step is therefore
// reachable only while every earlier point stayed below the cap.
func (d *disjunction) nextPsi() (int32, bool, bool) {
	if d.psi >= d.maxPsi {
		return 0, false, false
	}
	var m int32
	any := false
	for _, ev := range d.evals {
		// A drained D_R holds parked entries only.
		if md, ok := ev.dr.MinDistance(); ok && (!any || md < m) {
			m, any = md, true
		}
	}
	if !any {
		return 0, false, false
	}
	step, psi := int64(d.step), int64(d.psi)
	steps := (int64(m) - psi + step - 1) / step // ≥ 1: every parked tuple exceeds ψ
	maxSteps := (int64(d.maxPsi) - psi + step - 1) / step
	if steps > maxSteps {
		return 0, false, false // the nearest parked tuple lies beyond the cap
	}
	return int32(psi + steps*step), steps > 1, true
}

// Close releases every branch evaluator's resources deterministically.
func (d *disjunction) Close() error {
	d.stop()
	d.failed = closedErr(d.failed)
	for _, ev := range d.evals {
		ev.Close()
	}
	return nil
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
