package automaton_test

import (
	"fmt"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/l4all"
	"omega/internal/ontology"
	"omega/internal/query"
	"omega/internal/yago"
)

// checkRuns fails unless every Prev link of c joins two adjacent costed
// transitions of one state that share Group and Cost, and every such pair is
// linked.
func checkRuns(t *testing.T, id string, c *automaton.Compiled) {
	t.Helper()
	for s, ts := range c.States {
		for i := range ts {
			tr := &ts[i]
			if tr.Prev < 0 {
				if i > 0 && tr.Cost > 0 && ts[i-1].Cost == tr.Cost && ts[i-1].Group == tr.Group {
					t.Errorf("%s: state %d: transition %d ends the run of %d but is not linked to it", id, s, tr.Index, ts[i-1].Index)
				}
				continue
			}
			if i == 0 || tr.Prev != ts[i-1].Index {
				t.Errorf("%s: state %d: transition %d links to %d, not the previous transition of its state", id, s, tr.Index, tr.Prev)
				continue
			}
			if p := &c.Trans[tr.Prev]; tr.Cost == 0 || p.Cost != tr.Cost || p.Group != tr.Group {
				t.Errorf("%s: state %d: transition %d (group %d, cost %d) links to %d (group %d, cost %d)",
					id, s, tr.Index, tr.Group, tr.Cost, p.Index, p.Group, p.Cost)
			}
		}
	}
}

// TestCompileRuns pins the runs of same-cost transitions on the study APPROX
// automata — one continuation walks each run during evaluation — and checks
// the links of every L4All and YAGO study automaton in every mode, forward
// and reversed, with and without RELAX rule (ii): a link never leaves its
// state, where Group numbers start again (reversed Q8 APPROX has a state
// ending in group 0 at cost 1 before one starting so), and never joins two
// costs.
func TestCompileRuns(t *testing.T) {
	lg, lont := l4all.Generate(l4all.L1)
	want := map[string][2]int{ // {wildcards, runs} of the APPROX automaton
		"Q3": {6, 4}, "Q8": {6, 4}, "Q9": {10, 6}, "Q12": {10, 7},
	}
	for _, qs := range l4all.Queries() {
		w, pinned := want[qs.ID]
		if !pinned {
			continue
		}
		q, err := query.Parse(qs.Text)
		if err != nil {
			t.Fatalf("%s: %v", qs.ID, err)
		}
		c, err := automaton.Build(q.Conjuncts[0].Expr, lg, lont, automaton.BuildOptions{Mode: automaton.Approx, Edit: automaton.DefaultEditCosts()})
		if err != nil {
			t.Fatal(err)
		}
		var got [2]int
		for _, tr := range c.Trans {
			if tr.Kind == automaton.Any {
				got[0]++
				if tr.Prev < 0 {
					got[1]++
				}
			}
		}
		if got != w {
			t.Errorf("%s APPROX: %d wildcards in %d runs, want %d in %d", qs.ID, got[0], got[1], w[0], w[1])
		}
	}

	yg, yont := yago.Generate(yago.Config{})
	for _, set := range []struct {
		g       *graph.Graph
		ont     *ontology.Ontology
		queries []l4all.QuerySpec
	}{
		{lg, lont, l4all.Queries()},
		{yg, yont, yagoSpecs()},
	} {
		for _, qs := range set.queries {
			q, err := query.Parse(qs.Text)
			if err != nil {
				t.Fatalf("%s: %v", qs.ID, err)
			}
			for _, cj := range q.Conjuncts {
				for _, mode := range []automaton.Mode{automaton.Exact, automaton.Approx, automaton.Relax, automaton.Flex} {
					for _, reverse := range []bool{false, true} {
						for _, rule2 := range []bool{false, true} {
							c, err := automaton.Build(cj.Expr, set.g, set.ont, automaton.BuildOptions{
								Mode: mode, Edit: automaton.DefaultEditCosts(), RelaxCosts: automaton.DefaultRelaxCosts(),
								EnableRule2: rule2, Reverse: reverse,
							})
							if err != nil {
								t.Fatal(err)
							}
							checkRuns(t, fmt.Sprintf("%s %v reverse=%v rule2=%v", qs.ID, mode, reverse, rule2), c)
						}
					}
				}
			}
		}
	}
}
