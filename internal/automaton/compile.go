package automaton

import (
	"fmt"
	"sort"
	"strings"

	"omega/internal/graph"
	"omega/internal/ontology"
	"omega/internal/rpq"
)

// CTrans is a transition compiled against a concrete graph: labels are
// interned, RELAX rule (i) transitions are expanded to their subproperty
// label sets, and rule (ii) target classes are resolved to node ids.
type CTrans struct {
	Kind   Kind
	Dir    graph.Direction
	Labels []graph.LabelID // Sym: one or more label ids; Any: nil
	Cost   int32
	To     int32
	Target graph.NodeID // landing-node constraint; InvalidNode when unconstrained
	// Group identifies runs of transitions within a state that retrieve the
	// same neighbour set (same Kind/Dir/Labels/Target): the paper's Succ
	// procedure reuses the NeighboursByEdge result U across such runs (§3.4).
	Group int32
	// Index is the transition's position in Compiled.Trans.
	Index int32
}

// Compiled is an ε-free weighted NFA bound to a graph, ready for evaluation.
type Compiled struct {
	NumStates   int32
	Start       int32
	FinalWeight []int32 // per state; -1 when not final
	States      [][]CTrans
	// Trans holds every transition once, state by state; each States[s] is a
	// sub-slice of it, so Trans[tr.Index] is tr.
	Trans []CTrans
	// MinTransCost is the smallest non-zero transition cost, used as the ψ
	// increment by distance-aware retrieval when no operator cost is known.
	MinTransCost int32
}

// IsFinal reports whether state s is final and returns its weight.
func (c *Compiled) IsFinal(s int32) (int32, bool) {
	w := c.FinalWeight[s]
	return w, w >= 0
}

// NextStates returns the compiled transitions leaving s, sorted so that
// transitions retrieving identical neighbour sets are adjacent (§3.4).
func (c *Compiled) NextStates(s int32) []CTrans { return c.States[s] }

// Compile binds the ε-free NFA n to graph g. Transitions whose labels do not
// occur in g (after subproperty expansion) can never fire and are dropped;
// likewise rule (ii) transitions whose target class is not a node of g. The
// ontology resolves subproperty expansions for RELAX rule (i) transitions
// and may be nil when n contains none.
func Compile(n *NFA, g *graph.Graph, ont *ontology.Ontology) (*Compiled, error) {
	for _, t := range n.Trans {
		if t.Kind == Eps {
			return nil, fmt.Errorf("automaton: Compile: ε-transition present; call RemoveEpsilon first")
		}
	}
	c := &Compiled{
		NumStates:    n.NumStates,
		Start:        n.Start,
		FinalWeight:  make([]int32, n.NumStates),
		States:       make([][]CTrans, n.NumStates),
		MinTransCost: 0,
	}
	for i := range c.FinalWeight {
		c.FinalWeight[i] = -1
	}
	for s, w := range n.Finals {
		c.FinalWeight[s] = w
	}

	for _, t := range n.Trans {
		ct := CTrans{Kind: t.Kind, Dir: t.Dir, Cost: t.Cost, To: t.To, Target: graph.InvalidNode}
		if t.TargetClass != "" {
			node, ok := g.LookupNode(t.TargetClass)
			if !ok {
				continue // target class absent: transition can never fire
			}
			ct.Target = node
		}
		if t.Kind == Sym {
			if id, ok := g.Label(t.Label); ok {
				ct.Labels = append(ct.Labels, id)
			}
			if t.Expand && ont != nil {
				for _, sub := range ont.PropertyDescendants(t.Label) {
					if id, ok := g.Label(sub); ok {
						ct.Labels = append(ct.Labels, id)
					}
				}
			}
			if len(ct.Labels) == 0 {
				continue // label unknown to this graph: can never fire
			}
			sort.Slice(ct.Labels, func(i, j int) bool { return ct.Labels[i] < ct.Labels[j] })
			ct.Labels = dedupeLabels(ct.Labels)
		}
		c.States[t.From] = append(c.States[t.From], ct)
		if t.Cost > 0 && (c.MinTransCost == 0 || t.Cost < c.MinTransCost) {
			c.MinTransCost = t.Cost
		}
	}

	for s := range c.States {
		ts := c.States[s]
		// The order must be total: evaluation pushes successors in this
		// order and D_R buckets are LIFO, so any tie left to the incoming
		// (map-derived) transition order would make ranked emission
		// nondeterministic between runs.
		sort.Slice(ts, func(i, j int) bool {
			ki, kj := groupKey(&ts[i]), groupKey(&ts[j])
			if ki != kj {
				return ki < kj
			}
			if ts[i].Cost != ts[j].Cost {
				return ts[i].Cost < ts[j].Cost
			}
			return ts[i].To < ts[j].To
		})
		var group int32 = -1
		prevKey := ""
		for i := range ts {
			k := groupKey(&ts[i])
			if k != prevKey {
				group++
				prevKey = k
			}
			ts[i].Group = group
		}
		c.States[s] = ts
	}
	total := 0
	for _, ts := range c.States {
		total += len(ts)
	}
	c.Trans = make([]CTrans, 0, total) // never regrown: States alias it
	for s, ts := range c.States {
		base := len(c.Trans)
		for i := range ts {
			ts[i].Index = int32(base + i)
		}
		c.Trans = append(c.Trans, ts...)
		c.States[s] = c.Trans[base:len(c.Trans):len(c.Trans)]
	}
	return c, nil
}

func dedupeLabels(ls []graph.LabelID) []graph.LabelID {
	out := ls[:1]
	for _, l := range ls[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

func groupKey(t *CTrans) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d/%d/", t.Kind, t.Dir, t.Target)
	for _, l := range t.Labels {
		fmt.Fprintf(&b, "%d,", l)
	}
	return b.String()
}

// Pipeline options bundle the full construction chain used by the evaluator.

// Mode selects how a conjunct's automaton is augmented.
type Mode uint8

const (
	// Exact evaluates R as written.
	Exact Mode = iota
	// Approx applies the edit-distance augmentation (APPROX).
	Approx
	// Relax applies the ontology augmentation (RELAX).
	Relax
	// Flex applies both augmentations (EXTENSION beyond the paper).
	Flex
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "EXACT"
	case Approx:
		return "APPROX"
	case Relax:
		return "RELAX"
	case Flex:
		return "FLEX"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// BuildOptions configures Build.
type BuildOptions struct {
	Mode        Mode
	Edit        EditCosts
	RelaxCosts  RelaxCosts
	EnableRule2 bool
	Reverse     bool // build for R− (Case 2 of Open)
}

// Build runs the full pipeline of §3.3 for one conjunct: construct M_R,
// optionally reverse it, augment into A_R or M^K_R, remove ε-transitions,
// and compile against the graph.
func Build(e *rpq.Expr, g *graph.Graph, ont *ontology.Ontology, opts BuildOptions) (*Compiled, error) {
	n := FromRegexp(e)
	if opts.Reverse {
		rev, err := n.Reverse()
		if err != nil {
			return nil, err
		}
		n = rev
	}
	switch opts.Mode {
	case Exact:
	case Approx:
		n = n.Approx(opts.Edit)
	case Relax:
		if ont == nil {
			return nil, fmt.Errorf("automaton: Build: RELAX requires an ontology")
		}
		n = n.Relax(ont, opts.RelaxCosts, opts.EnableRule2)
	case Flex:
		if ont == nil {
			return nil, fmt.Errorf("automaton: Build: FLEX requires an ontology")
		}
		n = n.Relax(ont, opts.RelaxCosts, opts.EnableRule2).Approx(opts.Edit)
	default:
		return nil, fmt.Errorf("automaton: Build: unknown mode %v", opts.Mode)
	}
	return Compile(n.RemoveEpsilon(), g, ont)
}
