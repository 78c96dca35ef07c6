package core

import (
	"fmt"
	"strings"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// ExplainQuery renders the evaluation plan for a query without running it:
// the query tree (conjunct order), and per conjunct the Open case, the
// automaton pipeline and its compiled size, the seed population, and the
// §4.3 strategies in effect.
func ExplainQuery(g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options) (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	opts = opts.withDefaults()
	var b strings.Builder

	order := make([]int, len(q.Conjuncts))
	for i := range order {
		order[i] = i
	}
	if opts.ReorderConjuncts && len(q.Conjuncts) > 1 {
		order = planQueryTree(q)
		fmt.Fprintf(&b, "query tree (planned order): %v\n", order)
	}
	if len(q.Conjuncts) > 1 {
		fmt.Fprintf(&b, "join: round-based ranked join over %d conjuncts\n", len(q.Conjuncts))
	}

	for pos, idx := range order {
		c := q.Conjuncts[idx]
		fmt.Fprintf(&b, "conjunct %d: %s\n", pos+1, c)
		plan, err := compileConjunct(g, ont, c, opts)
		if err != nil {
			return "", err
		}
		switch {
		case !plan.case3 && plan.finalAnn == nil:
			fmt.Fprintf(&b, "  case 1: constant subject, %d seed(s)\n", len(plan.seeds))
		case !plan.case3 && plan.finalAnn != nil:
			fmt.Fprintf(&b, "  case 1+annotation: %d seed(s), %d accepted final node(s)\n", len(plan.seeds), len(plan.finalAnn))
		default:
			est := plan.seedEstimate(plan.auts[0])
			fmt.Fprintf(&b, "  case 3: variable endpoints, ~%d candidate start node(s), batches of %d\n", est, opts.BatchSize)
		}
		if plan.swapped {
			if plan.case3 {
				fmt.Fprintf(&b, "  rare-side: evaluating the reversed expression from the object side\n")
			} else {
				fmt.Fprintf(&b, "  case 2 rewrite: evaluating the reversed expression\n")
			}
		}
		for i, aut := range plan.auts {
			trans := 0
			for s := int32(0); s < aut.NumStates; s++ {
				trans += len(aut.NextStates(s))
			}
			name := "automaton"
			if len(plan.auts) > 1 {
				name = fmt.Sprintf("sub-automaton %d", i+1)
			}
			fmt.Fprintf(&b, "  %s (%v): %d states, %d compiled transitions\n", name, c.Mode, aut.NumStates, trans)
		}
		var strategies []string
		if plan.decompose {
			variant := "resumable per branch"
			if opts.DistanceRestart {
				variant = "restart per branch and phase"
			}
			strategies = append(strategies, fmt.Sprintf("alternation-by-disjunction (%s)", variant))
		}
		if opts.DistanceAware && c.Mode != automaton.Exact {
			variant := "incremental"
			if opts.DistanceRestart {
				variant = "restart-per-phase"
			}
			strategies = append(strategies, fmt.Sprintf("distance-aware (%s, φ=%d, max ψ=%d)", variant, opts.phi(c.Mode), plan.maxPsi()))
		}
		if opts.RareSide && plan.case3 && !plan.sameVar {
			strategies = append(strategies, "rare-side")
		}
		if opts.Rewrite {
			strategies = append(strategies, "rewrite")
		}
		if opts.SpillThreshold > 0 {
			strategies = append(strategies, fmt.Sprintf("spill at %d resident tuples", opts.SpillThreshold))
		}
		if opts.MaxTuples > 0 {
			strategies = append(strategies, fmt.Sprintf("tuple budget %d", opts.MaxTuples))
		}
		if len(strategies) > 0 {
			fmt.Fprintf(&b, "  strategies: %s\n", strings.Join(strategies, ", "))
		}
		// Backend choice, assuming an exhaustive execution (per-request Limit
		// or MaxDist forces ranked streaming regardless of the plan).
		dec := plan.chooseBackend(opts.Backend, true)
		name := "ranked GetNext"
		if dec.backend == BackendBulk {
			name = "bulk set-semantics"
		}
		mode := "auto"
		if opts.Backend != BackendAuto {
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
