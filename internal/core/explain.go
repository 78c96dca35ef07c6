package core

import (
	"fmt"
	"strings"

	"omega/internal/automaton"
)

// Explain renders the plan one execution with eo's knobs would run, without
// running it: per conjunct of the variant for eo.Mode, in body order, the Open
// case, the automaton pipeline and its compiled size, the seed population,
// the driver open would instantiate with its §4.3 strategies, and the backend
// decision with the planner's evidence. The driver and the backend come from
// the same decisions Exec makes (backendFor, driverFor), so the plan cannot
// drift from the run.
func (p *Prepared) Explain(eo ExecOptions) (string, error) {
	ps, err := p.planSetFor(eo.Mode)
	if err != nil {
		return "", err
	}
	opts := p.runOptions(eo)
	var b strings.Builder
	if len(ps.plans) > 1 {
		fmt.Fprintf(&b, "join: round-based ranked join over %d conjuncts\n", len(ps.plans))
	}

	for i, plan := range ps.plans {
		c := ps.q.Conjuncts[i]
		fmt.Fprintf(&b, "conjunct %d: %s\n", i+1, c)
		switch {
		case !plan.case3 && plan.finalAnn == nil:
			fmt.Fprintf(&b, "  case 1: constant subject, %d seed(s)\n", len(plan.seeds))
		case !plan.case3 && plan.finalAnn != nil:
			fmt.Fprintf(&b, "  case 1+annotation: %d seed(s), %d accepted final node(s)\n", len(plan.seeds), len(plan.finalAnn))
		default:
			fmt.Fprintf(&b, "  case 3: variable endpoints, ~%d candidate start node(s), batches of %d\n", plan.seedCount(), opts.BatchSize)
		}
		if plan.swapped {
			if plan.case3 {
				fmt.Fprintf(&b, "  rare-side: evaluating the reversed expression from the object side\n")
			} else {
				fmt.Fprintf(&b, "  case 2 rewrite: evaluating the reversed expression\n")
			}
		}
		for j, aut := range plan.auts {
			trans := 0
			for s := int32(0); s < aut.NumStates; s++ {
				trans += len(aut.NextStates(s))
			}
			name := "automaton"
			if len(plan.auts) > 1 {
				name = fmt.Sprintf("sub-automaton %d", j+1)
			}
			fmt.Fprintf(&b, "  %s (%v): %d states, %d compiled transitions\n", name, c.Mode, aut.NumStates, trans)
		}
		dec := plan.backendFor(eo)
		drv := plan.driverFor(&opts, dec.backend)
		if s := strategies(plan, &opts, drv, eo.MaxDist); len(s) > 0 {
			fmt.Fprintf(&b, "  strategies: %s\n", strings.Join(s, ", "))
		}
		name := "ranked GetNext"
		if dec.backend == BackendBulk {
			name = "bulk set-semantics"
		}
		mode := "auto"
		if dec.pinned {
			mode = "pinned"
		}
		fmt.Fprintf(&b, "  backend: %s (%s: %s)\n", name, mode, dec.reason)
		if dec.estRanked > 0 {
			fmt.Fprintf(&b, "  backend cost model: S=%d seeds, E=%d matched edges; est ranked %d edge visits vs bulk %d word ops\n",
				dec.seeds, dec.edges, dec.estRanked, dec.estBulk)
		}
	}
	return b.String(), nil
}

// strategies lists what the conjunct's run applies beyond plain ranked
// evaluation: the driver drv (with its ψ cap under maxDist), the plan's
// compile-time strategies and the run's tuple budget.
func strategies(plan *conjunctPlan, opts *Options, drv driver, maxDist int32) []string {
	var out []string
	switch drv {
	case driverEmpty:
		return nil
	case driverPhases:
		if plan.decompose {
			out = append(out, "alternation-by-disjunction (resumable per branch)")
		}
		if opts.DistanceAware && plan.mode != automaton.Exact {
			out = append(out, fmt.Sprintf("distance-aware (incremental, φ=%d, ψ step %d, max ψ=%d)", opts.phi(plan.mode), opts.psiStep(plan.mode), plan.psiCap(maxDist)))
		}
	}
	if opts.RareSide && plan.case3 && !plan.sameVar {
		out = append(out, "rare-side")
	}
	if opts.MaxTuples > 0 {
		out = append(out, fmt.Sprintf("tuple budget %d", opts.MaxTuples))
	}
	return out
}
