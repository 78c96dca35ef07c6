package core

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"omega/internal/automaton"
	"omega/internal/dstruct"
	"omega/internal/graph"
	"omega/internal/l4all"
	"omega/internal/ontology"
)

// This file keeps §4.3's retrieval by distance as the paper describes it — a
// restart from scratch at each ψ increment — as the reference the resumable
// driver (disjunction.go) is held to: byte-identical emission, and never more
// pops.

// openRestart opens conjunct c as OpenConjunct does, except that a conjunct
// the ψ-phase driver would run goes to the restart reference instead.
func openRestart(g *graph.Graph, ont *ontology.Ontology, c Conjunct, opts Options) (Iterator, error) {
	opts = opts.withDefaults()
	plan, err := compileConjunct(g, ont, c, opts)
	if err != nil {
		return nil, err
	}
	r := newRun(nil, opts, NewMemGauge(0), nil, nil)
	return openRestartPlan(plan, &r, BackendRanked), nil
}

// openRestartPlan is plan.open with the restart reference in place of the
// resumable ψ-phase driver, wrapped the same way.
func openRestartPlan(plan *conjunctPlan, r *run, backend Backend) Iterator {
	if plan.driverFor(&r.opts, backend) != driverPhases {
		return plan.open(r, 0, backend)
	}
	var it Iterator = newRestartDisjunction(plan, r, plan.opts.psiStep(plan.mode), plan.psiCap(0))
	if plan.sameVar {
		it = sameVarIterator{it}
	}
	if plan.swapped {
		it = swapIterator{it}
	}
	return it
}

// studyConjunct parses the body of an L4All study query, "(head) <- (s, R,
// o)", into a conjunct in mode.
func studyConjunct(t *testing.T, text string, mode automaton.Mode) Conjunct {
	t.Helper()
	_, body, ok := strings.Cut(text, " <- (")
	parts := strings.Split(strings.TrimSuffix(body, ")"), ", ")
	if !ok || len(parts) != 3 {
		t.Fatalf("not a one-conjunct study query: %q", text)
	}
	return conj(parts[0], parts[1], parts[2], mode)
}

// checkCorpusMatchesRestart runs every L4All study query on L1 in each mode
// under opts, distance-aware, with the resumable driver and with the restart
// reference, pulling up to 500 answers from each. The two must emit
// byte-identical sequences (same pairs, same distances, same order), and the
// resumable driver must pop no more tuples than the restart reference, and
// strictly fewer wherever the reference ran more than one phase: it pops
// each tuple once, where every restarted phase pops its predecessors' tuples
// again.
func checkCorpusMatchesRestart(t *testing.T, opts Options, modes []automaton.Mode) {
	g, ont := l4all.Generate(l4all.L1)
	opts.DistanceAware = true
	for _, q := range l4all.Queries() {
		for _, mode := range modes {
			c := studyConjunct(t, q.Text, mode)
			incIt, err := OpenConjunct(g, ont, c, opts)
			if err != nil {
				t.Fatalf("%s/%v: OpenConjunct: %v", q.ID, mode, err)
			}
			resIt, err := openRestart(g, ont, c, opts)
			if err != nil {
				t.Fatalf("%s/%v: openRestart: %v", q.ID, mode, err)
			}
			inc, res := drain(t, incIt, 500), drain(t, resIt, 500)
			if !slices.Equal(inc, res) {
				t.Fatalf("%s/%v: incremental emitted %d answers, restart reference %d, and they differ", q.ID, mode, len(inc), len(res))
			}
			is, rs := incIt.Stats(), resIt.Stats()
			if is.TuplesPopped > rs.TuplesPopped || rs.Phases > 1 && is.TuplesPopped == rs.TuplesPopped {
				t.Fatalf("%s/%v: incremental popped %d tuples, restart reference %d over %d phases",
					q.ID, mode, is.TuplesPopped, rs.TuplesPopped, rs.Phases)
			}
			incIt.Close()
			resIt.Close()
		}
	}
}

// TestL4AllCorpusDistanceAwareDifferential holds the resumable ψ-phase
// driver to the restart reference on the L4All study corpus at the default
// costs and ψ cap.
func TestL4AllCorpusDistanceAwareDifferential(t *testing.T) {
	checkCorpusMatchesRestart(t, Options{}, []automaton.Mode{automaton.Approx, automaton.Relax, automaton.Flex})
}

// TestL4AllCorpusDistanceAwareTighterPsi repeats the differential with a
// non-default ψ cap and non-unit costs, so multi-φ grid stepping and the
// truncation boundary are exercised on real workloads too.
func TestL4AllCorpusDistanceAwareTighterPsi(t *testing.T) {
	checkCorpusMatchesRestart(t, Options{
		MaxPsi: 4,
		Edit:   automaton.EditCosts{Insert: 2, Delete: 3, Substitute: 2},
		Relax:  automaton.RelaxCosts{Beta: 2, Gamma: 5},
	}, []automaton.Mode{automaton.Approx, automaton.Relax})
}

// restartDisjunction is the paper's naive driver, kept as the differential
// reference of the resumable one: every (branch, phase) pair builds a fresh
// evaluator and re-runs evaluation from the beginning, with the cross-phase
// emitted-set suppressing answers already returned by earlier phases or
// branches.
type restartDisjunction struct {
	plan *conjunctPlan
	r    *run

	step   int32 // the ψ grid step
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

func newRestartDisjunction(plan *conjunctPlan, r *run, step, maxPsi int32) *restartDisjunction {
	d := &restartDisjunction{
		plan:       plan,
		r:          r,
		step:       step,
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
				d.psi += d.step
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

// Stats implements Iterator. The memory peak is the run's gauge, as each
// evaluator reports it, also before the first phase has started one.
func (d *restartDisjunction) Stats() Stats {
	s := d.stats
	if d.cur != nil {
		addBranch(&s, d.cur)
	}
	s.MemPeakBytes = d.r.mem.PeakBytes()
	return s
}
