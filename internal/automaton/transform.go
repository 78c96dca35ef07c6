package automaton

import (
	"omega/internal/graph"
	"omega/internal/ontology"
)

func graphDir(d uint8) graph.Direction { return graph.Direction(d) }

// EditCosts configures the APPROX operator. The paper's study uses cost 1
// for each operation.
type EditCosts struct {
	Insert     int32
	Delete     int32
	Substitute int32
}

// DefaultEditCosts mirrors the paper's performance study (§4.1).
func DefaultEditCosts() EditCosts { return EditCosts{Insert: 1, Delete: 1, Substitute: 1} }

// MinCost returns the smallest positive edit cost (the paper's φ, the step
// used by distance-aware retrieval), or 1 when none is positive.
func (c EditCosts) MinCost() int32 {
	return minPositive(c.Insert, c.Delete, c.Substitute)
}

// minPositive returns the smallest positive cost, or 1 when none is.
func minPositive(costs ...int32) int32 {
	var m int32
	for _, c := range costs {
		if c > 0 && (m == 0 || c < m) {
			m = c
		}
	}
	return max(m, 1)
}

// Approx augments the automaton with the edit operations of the APPROX
// operator (Hurtado, Poulovassilis & Wood, ESWC 2009), producing A_R:
//
//   - substitution: any single edge (either direction, any label including
//     type) may be consumed in place of a labelled transition, at cost sub;
//   - deletion: a labelled transition may be crossed without consuming an
//     edge (an ε-transition at cost del, later removed by RemoveEpsilon);
//   - insertion: any single edge may be consumed without progress in the
//     automaton (a wildcard self-loop at cost ins on every state — the
//     paper's single '*'-labelled transition, §3.3).
//
// The cost Approx gives a word depends only on the input's weighted language
// (the least, over accepted words, of a word's cost plus its edit distance),
// so the input may keep its ε-transitions or not. Build passes the ε-free
// automaton: on the Thompson ε-NFA, a state that only ε reaches would gain
// its own insertion loop and survive ε-removal as a duplicate of its
// ε-predecessor. Deletions are ε-transitions, so call RemoveEpsilon
// afterwards.
func (n *NFA) Approx(costs EditCosts) *NFA {
	out := n.Clone()
	for _, t := range n.Trans {
		if t.Kind == Eps {
			continue
		}
		// Substitution replaces the consumed symbol.
		out.Trans = append(out.Trans, Transition{
			From: t.From, To: t.To, Kind: Any, Dir: graph.Both, Cost: t.Cost + costs.Substitute,
		})
		// Deletion skips the symbol.
		out.Trans = append(out.Trans, Transition{
			From: t.From, To: t.To, Kind: Eps, Cost: t.Cost + costs.Delete,
		})
	}
	for s := int32(0); s < n.NumStates; s++ {
		out.Trans = append(out.Trans, Transition{
			From: s, To: s, Kind: Any, Dir: graph.Both, Cost: costs.Insert,
		})
	}
	return out
}

// RelaxCosts configures the RELAX operator: Beta is the cost of replacing a
// class/property by an immediate superclass/superproperty (rule i), Gamma
// the cost of replacing a property by a type edge to its domain/range class
// (rule ii).
type RelaxCosts struct {
	Beta  int32
	Gamma int32
}

// DefaultRelaxCosts mirrors the paper's performance study (rule (i) at cost 1).
func DefaultRelaxCosts() RelaxCosts { return RelaxCosts{Beta: 1, Gamma: 1} }

// MinCost returns the smallest positive relaxation cost (the φ step for
// distance-aware retrieval), or 1 when none is positive.
func (c RelaxCosts) MinCost() int32 {
	return minPositive(c.Beta, c.Gamma)
}

// Relax augments the automaton with the ontology-driven relaxations of the
// RELAX operator (Poulovassilis & Wood, ISWC 2010), producing M^K_R:
//
//   - rule (i): a transition labelled with property p gains, for each
//     superproperty q at k sp-steps, a transition labelled q at cost k·β.
//     The added transition is marked Expand: at evaluation time it matches q
//     and every subproperty of q, which is how a query relaxed to
//     relationLocatedByObject matches happenedIn and participatedIn
//     (paper Example 3) without materialising the subproperty closure.
//   - rule (ii), when enabled: a transition labelled p gains a type-labelled
//     transition at cost γ that must land on dom(p) (for forward traversal)
//     or range(p) (for reverse traversal).
//
// Relaxation of class constants at the conjunct endpoints is handled by the
// evaluation layer via ontology.ClassAncestors (Open, Case 1).
func (n *NFA) Relax(ont *ontology.Ontology, costs RelaxCosts, rule2 bool) *NFA {
	out := n.Clone()
	for _, t := range n.Trans {
		if t.Kind != Sym || t.Label == graph.TypeLabel {
			continue
		}
		if !ont.IsProperty(t.Label) {
			continue
		}
		for _, anc := range ont.PropertyAncestors(t.Label) {
			if anc.Dist == 0 {
				continue
			}
			out.Trans = append(out.Trans, Transition{
				From: t.From, To: t.To, Kind: Sym, Label: anc.Name, Dir: t.Dir,
				Cost: t.Cost + int32(anc.Dist)*costs.Beta, Expand: true,
			})
		}
		if rule2 && t.Dir != graph.Both {
			var class string
			var ok bool
			if t.Dir == graph.Out {
				class, ok = ont.Domain(t.Label)
			} else {
				class, ok = ont.Range(t.Label)
			}
			if ok {
				out.Trans = append(out.Trans, Transition{
					From: t.From, To: t.To, Kind: Sym, Label: graph.TypeLabel,
					Dir: graph.Out, Cost: t.Cost + costs.Gamma, TargetClass: class,
				})
			}
		}
	}
	return out
}
