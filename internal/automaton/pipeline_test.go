package automaton_test

import (
	"reflect"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/l4all"
	"omega/internal/ontology"
	"omega/internal/query"
	"omega/internal/yago"
)

// TestExactRelaxPipelineUnchanged holds Build for EXACT and RELAX to the
// pipeline those modes have always run — Thompson construction, optional
// reversal, Relax, one ε-removal, Compile — on every conjunct of the L4All
// and YAGO study queries, forward and reversed, with and without RELAX rule
// (ii): only APPROX and FLEX remove ε before the edit augmentation.
func TestExactRelaxPipelineUnchanged(t *testing.T) {
	lg, lont := l4all.Generate(l4all.L1)
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
			for _, c := range q.Conjuncts {
				for _, mode := range []automaton.Mode{automaton.Exact, automaton.Relax} {
					for _, reverse := range []bool{false, true} {
						for _, rule2 := range []bool{false, true} {
							opts := automaton.BuildOptions{
								Mode: mode, Edit: automaton.DefaultEditCosts(), RelaxCosts: automaton.DefaultRelaxCosts(),
								EnableRule2: rule2, Reverse: reverse,
							}
							n := automaton.FromRegexp(c.Expr)
							if reverse {
								if n, err = n.Reverse(); err != nil {
									t.Fatal(err)
								}
							}
							if mode == automaton.Relax {
								n = n.Relax(set.ont, opts.RelaxCosts, rule2)
							}
							want, err := automaton.Compile(n.RemoveEpsilon(), set.g, set.ont)
							if err != nil {
								t.Fatal(err)
							}
							got, err := automaton.Build(c.Expr, set.g, set.ont, opts)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("%s %s %v reverse=%v rule2=%v: Build's automaton differs from Thompson → Relax → RemoveEpsilon",
									qs.ID, c.Expr, mode, reverse, rule2)
							}
						}
					}
				}
			}
		}
	}
}

func yagoSpecs() []l4all.QuerySpec {
	var out []l4all.QuerySpec
	for _, q := range yago.Queries() {
		out = append(out, l4all.QuerySpec(q))
	}
	return out
}
