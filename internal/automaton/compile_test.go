package automaton

import (
	"testing"

	"omega/internal/graph"
	"omega/internal/rpq"
)

func compileGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, tr := range [][3]string{
		{"x", "p", "y"},
		{"y", "q", "z"},
		{"x", "type", "C"},
		{"y", "gradFrom", "u"},
		{"y", "happenedIn", "v"},
	} {
		if err := b.AddTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Freeze()
}

func TestCompileRejectsEpsilon(t *testing.T) {
	g := compileGraph(t)
	n := FromRegexp(rpq.MustParse("a.b")) // still has ε-transitions
	if _, err := Compile(n, g, nil); err == nil {
		t.Fatal("Compile accepted an automaton with ε-transitions")
	}
}

func TestCompileDropsUnknownLabels(t *testing.T) {
	g := compileGraph(t)
	n := FromRegexp(rpq.MustParse("p|zzz")).RemoveEpsilon()
	c, err := Compile(n, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := int32(0); s < c.NumStates; s++ {
		total += len(c.NextStates(s))
	}
	if total != 1 {
		t.Fatalf("compiled transitions = %d, want 1 (zzz branch dropped)", total)
	}
}

func TestCompileFinalWeights(t *testing.T) {
	g := compileGraph(t)
	n := FromRegexp(rpq.MustParse("p")).Approx(DefaultEditCosts()).RemoveEpsilon()
	c, err := Compile(n, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := c.IsFinal(c.Start)
	if !ok || w != 1 {
		t.Fatalf("start final weight = (%d,%v), want (1,true) after APPROX deletion", w, ok)
	}
}

func TestCompileGroupsIdenticalRetrievals(t *testing.T) {
	g := compileGraph(t)
	// APPROX adds several Any/Both transitions from the start state; they
	// must share a Group id and sit adjacently so Succ can reuse U.
	n := FromRegexp(rpq.MustParse("p.q")).Approx(DefaultEditCosts()).RemoveEpsilon()
	c, err := Compile(n, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := c.NextStates(c.Start)
	if len(ts) < 2 {
		t.Fatalf("expected several transitions from start, got %d", len(ts))
	}
	// Group ids are non-decreasing and equal groups are adjacent.
	seen := map[int32]bool{}
	prev := int32(-1)
	for _, tr := range ts {
		if tr.Group != prev {
			if seen[tr.Group] {
				t.Fatalf("group %d appears in two separate runs", tr.Group)
			}
			seen[tr.Group] = true
			prev = tr.Group
		}
	}
	// At least one group with >1 member (the Any/Both family).
	counts := map[int32]int{}
	for _, tr := range ts {
		counts[tr.Group]++
	}
	multi := false
	for _, n := range counts {
		if n > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatalf("no shared retrieval group among %v", ts)
	}
}

func TestCompileExpandsSubproperties(t *testing.T) {
	g := compileGraph(t)
	o := yagoOnt()
	n := FromRegexp(rpq.MustParse("gradFrom")).Relax(o, DefaultRelaxCosts(), false).RemoveEpsilon()
	c, err := Compile(n, g, o)
	if err != nil {
		t.Fatal(err)
	}
	// The relaxed relationLocatedByObject transition must expand to the
	// graph's labels gradFrom and happenedIn (the only family members in g).
	var expanded *CTrans
	ts := c.NextStates(c.Start)
	for i := range ts {
		if ts[i].Cost == 1 {
			expanded = &ts[i]
		}
	}
	if expanded == nil {
		t.Fatalf("no relaxed transition compiled: %+v", ts)
	}
	if len(expanded.Labels) != 2 {
		t.Fatalf("expanded labels = %d, want 2 (gradFrom, happenedIn present in graph)", len(expanded.Labels))
	}
}

func TestCompileTargetClassResolution(t *testing.T) {
	g := compileGraph(t)
	o := yagoOnt()
	o.SetDomain("p", "C")
	n := FromRegexp(rpq.MustParse("p")).Relax(o, RelaxCosts{Beta: 1, Gamma: 1}, true).RemoveEpsilon()
	c, err := Compile(n, g, o)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for s := int32(0); s < c.NumStates; s++ {
		for _, tr := range c.NextStates(s) {
			if tr.Target != graph.InvalidNode {
				found = true
				if g.NodeLabel(tr.Target) != "C" {
					t.Fatalf("target resolved to %q, want C", g.NodeLabel(tr.Target))
				}
			}
		}
	}
	if !found {
		t.Fatal("rule (ii) transition not compiled")
	}

	// When the class node is absent from the graph the transition is dropped.
	o2 := yagoOnt()
	o2.SetDomain("p", "NotInGraph")
	n2 := FromRegexp(rpq.MustParse("p")).Relax(o2, RelaxCosts{Beta: 1, Gamma: 1}, true).RemoveEpsilon()
	c2, err := Compile(n2, g, o2)
	if err != nil {
		t.Fatal(err)
	}
	for s := int32(0); s < c2.NumStates; s++ {
		for _, tr := range c2.NextStates(s) {
			if tr.Target != graph.InvalidNode {
				t.Fatal("transition with unresolvable target class survived compilation")
			}
		}
	}
}

func TestBuildPipelineModes(t *testing.T) {
	g := compileGraph(t)
	o := yagoOnt()
	e := rpq.MustParse("p.q")
	for _, mode := range []Mode{Exact, Approx, Relax, Flex} {
		c, err := Build(e, g, o, BuildOptions{Mode: mode, Edit: DefaultEditCosts(), RelaxCosts: DefaultRelaxCosts()})
		if err != nil {
			t.Fatalf("Build(%v): %v", mode, err)
		}
		if c.NumStates == 0 {
			t.Fatalf("Build(%v): empty automaton", mode)
		}
	}
	if _, err := Build(e, g, nil, BuildOptions{Mode: Relax}); err == nil {
		t.Fatal("Build(RELAX) without ontology accepted")
	}
	if _, err := Build(e, g, nil, BuildOptions{Mode: Flex}); err == nil {
		t.Fatal("Build(FLEX) without ontology accepted")
	}
	if _, err := Build(e, g, nil, BuildOptions{Mode: Mode(99)}); err == nil {
		t.Fatal("Build with unknown mode accepted")
	}
}

func TestBuildReverse(t *testing.T) {
	g := compileGraph(t)
	// (x, p.q, ?Z) has answer z; building reversed is used for (?Z, p.q, x)
	// — check the reversed automaton accepts the reversed word.
	c, err := Build(rpq.MustParse("p.q"), g, nil, BuildOptions{Mode: Exact, Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates == 0 {
		t.Fatal("empty reversed automaton")
	}
	// start transitions must be the reverse of q (In direction).
	ts := c.NextStates(c.Start)
	if len(ts) != 1 || ts[0].Dir != graph.In {
		t.Fatalf("reversed start transitions = %+v, want single In-direction q", ts)
	}
}

func TestMinTransCost(t *testing.T) {
	g := compileGraph(t)
	n := FromRegexp(rpq.MustParse("p")).Approx(EditCosts{Insert: 3, Delete: 5, Substitute: 4}).RemoveEpsilon()
	c, err := Compile(n, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.MinTransCost != 3 {
		t.Fatalf("MinTransCost = %d, want 3", c.MinTransCost)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{Exact: "EXACT", Approx: "APPROX", Relax: "RELAX", Flex: "FLEX"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestKindString(t *testing.T) {
	if Eps.String() != "ε" || Sym.String() != "sym" || Any.String() != "*" {
		t.Errorf("Kind strings: %s %s %s", Eps, Sym, Any)
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestEditCostsMinCost(t *testing.T) {
	if c := (EditCosts{Insert: 2, Delete: 3, Substitute: 4}).MinCost(); c != 2 {
		t.Errorf("MinCost = %d, want 2", c)
	}
	if c := (EditCosts{}).MinCost(); c != 1 {
		t.Errorf("zero costs MinCost = %d, want 1 (guard)", c)
	}
	if c := (RelaxCosts{Beta: 5, Gamma: 2}).MinCost(); c != 2 {
		t.Errorf("RelaxCosts MinCost = %d, want 2", c)
	}
	// A zero cost is not the smallest: φ is the smallest positive one.
	if c := (EditCosts{Insert: 0, Delete: 4, Substitute: 5}).MinCost(); c != 4 {
		t.Errorf("MinCost with a zero insertion = %d, want 4", c)
	}
	if c := (RelaxCosts{Beta: 0, Gamma: 3}).MinCost(); c != 3 {
		t.Errorf("RelaxCosts MinCost with a zero β = %d, want 3", c)
	}
}
