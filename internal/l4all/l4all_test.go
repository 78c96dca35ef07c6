package l4all

import (
	"context"
	"testing"

	"omega/internal/automaton"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ontology"
	"omega/internal/query"
)

func TestOntologyShapes(t *testing.T) {
	// Figure 2 of the paper: depth and (approximate) average fan-out of the
	// five class hierarchies.
	o := Ontology()
	if err := o.Validate(); err != nil {
		t.Fatalf("ontology invalid: %v", err)
	}
	cases := []struct {
		root   string
		depth  int
		minFan float64
		maxFan float64
	}{
		{"Episode", 2, 2.5, 2.8},                       // paper: 2.67
		{"Subject", 2, 7.5, 8.5},                       // paper: 8
		{"Occupation", 4, 3.8, 4.3},                    // paper: 4.08
		{"Education Qualification Level", 2, 3.5, 4.1}, // paper: 3.89
		{"Industry Sector", 1, 21, 21},                 // paper: 21
	}
	for _, c := range cases {
		s := o.ClassHierarchyStats(c.root)
		if s.Depth != c.depth {
			t.Errorf("%s: depth = %d, want %d", c.root, s.Depth, c.depth)
		}
		if s.AvgFanOut < c.minFan || s.AvgFanOut > c.maxFan {
			t.Errorf("%s: avg fan-out = %.2f, want in [%.2f, %.2f]", c.root, s.AvgFanOut, c.minFan, c.maxFan)
		}
	}
	if d := o.PropertyDescendants("isEpisodeLink"); len(d) != 2 {
		t.Errorf("isEpisodeLink subproperties = %v, want next+prereq", d)
	}
}

func TestScaleTimelines(t *testing.T) {
	want := map[Scale]int{L1: 143, L2: 1201, L3: 5221, L4: 11416}
	for s, n := range want {
		if s.Timelines() != n {
			t.Errorf("%v.Timelines() = %d, want %d", s, s.Timelines(), n)
		}
	}
}

func TestGenerateL1Deterministic(t *testing.T) {
	g1, _ := Generate(L1)
	g2, _ := Generate(L1)
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("generator not deterministic: %d/%d vs %d/%d nodes/edges",
			g1.NumNodes(), g1.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
}

func TestGenerateScalesLinearly(t *testing.T) {
	g1, _ := Generate(L1)
	g2, _ := Generate(L2)
	// Figure 3's shape: edges grow linearly with the number of timelines.
	ratioT := float64(L2.Timelines()) / float64(L1.Timelines())
	ratioE := float64(g2.NumEdges()) / float64(g1.NumEdges())
	if ratioE < ratioT*0.7 || ratioE > ratioT*1.3 {
		t.Errorf("edge growth %.2f not roughly linear in timeline growth %.2f", ratioE, ratioT)
	}
	if g2.NumNodes() <= g1.NumNodes() {
		t.Error("L2 not larger than L1")
	}
}

func TestClassClosureMaterialised(t *testing.T) {
	g, ont := Generate(L1)
	// Every node typed with a leaf must also be typed with the leaf's
	// ancestors (the transitive-closure property §4.1 relies on).
	typeID, ok := g.Label(graph.TypeLabel)
	if !ok {
		t.Fatal("no type edges generated")
	}
	leaf, ok := g.LookupNode("Software Professionals")
	if !ok {
		t.Fatal("Software Professionals class node missing")
	}
	instances := g.Neighbors(leaf, typeID, graph.In)
	if len(instances) == 0 {
		t.Fatal("no Software Professionals instances at L1")
	}
	for _, anc := range ont.ClassAncestors("Software Professionals") {
		cn, ok := g.LookupNode(anc.Name)
		if !ok {
			t.Fatalf("ancestor class %q missing from graph", anc.Name)
		}
		if !g.HasEdge(instances[0], typeID, cn) {
			t.Fatalf("closure missing: instance lacks type edge to %q", anc.Name)
		}
	}
}

func TestClassNodeDegreeGrowsWithScale(t *testing.T) {
	// "As the data graph increases in size, the degree of the class nodes
	// increases linearly" (§4.1).
	g1, _ := Generate(L1)
	g2, _ := Generate(L2)
	typeID1, _ := g1.Label(graph.TypeLabel)
	typeID2, _ := g2.Label(graph.TypeLabel)
	we1, _ := g1.LookupNode("Work Episode")
	we2, _ := g2.LookupNode("Work Episode")
	d1 := g1.Degree(we1, typeID1, graph.In)
	d2 := g2.Degree(we2, typeID2, graph.In)
	if d2 <= d1*4 {
		t.Errorf("Work Episode in-degree: L1=%d L2=%d; want ~8.4x growth", d1, d2)
	}
}

func runQuery(t *testing.T, s Scale, qText string, mode automaton.Mode, limit int) []core.QueryAnswer {
	t.Helper()
	g, ont := Generate(s)
	q, err := query.Parse(qText)
	if err != nil {
		t.Fatalf("parse %q: %v", qText, err)
	}
	for i := range q.Conjuncts {
		q.Conjuncts[i].Mode = mode
	}
	it, err := execQuery(g, ont, q, core.Options{}, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out []core.QueryAnswer
	for len(out) < limit {
		a, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

func queryText(t *testing.T, id string) string {
	t.Helper()
	for _, q := range Queries() {
		if q.ID == id {
			return q.Text
		}
	}
	t.Fatalf("unknown query %s", id)
	return ""
}

func TestFigure5ShapeAtL1(t *testing.T) {
	// The qualitative shape of Figure 5 at L1:
	//   Q8 exact = 0, Q9 exact ≥ 1, Q12 exact = 0,
	//   Q3/Q10/Q11 exact ≥ 1,
	//   APPROX and RELAX recover answers for the zero-answer queries.
	if n := len(runQuery(t, L1, queryText(t, "Q8"), automaton.Exact, 1000)); n != 0 {
		t.Errorf("Q8 exact = %d answers, want 0", n)
	}
	if n := len(runQuery(t, L1, queryText(t, "Q12"), automaton.Exact, 1000)); n != 0 {
		t.Errorf("Q12 exact = %d answers, want 0", n)
	}
	if n := len(runQuery(t, L1, queryText(t, "Q9"), automaton.Exact, 1000)); n < 1 {
		t.Errorf("Q9 exact = %d answers, want ≥ 1", n)
	}
	for _, id := range []string{"Q3", "Q10", "Q11"} {
		if n := len(runQuery(t, L1, queryText(t, id), automaton.Exact, 1000)); n < 1 {
			t.Errorf("%s exact = %d answers, want ≥ 1", id, n)
		}
	}

	// APPROX rescues Q8 and Q12 (the paper reports 100 answers each).
	for _, id := range []string{"Q8", "Q12"} {
		as := runQuery(t, L1, queryText(t, id), automaton.Approx, 100)
		if len(as) < 10 {
			t.Errorf("%s APPROX = %d answers, want ≥ 10", id, len(as))
		}
		for _, a := range as {
			if a.Dist == 0 {
				t.Errorf("%s APPROX returned a distance-0 answer but exact is empty", id)
			}
		}
	}
	// RELAX rescues Q12 via the Level 1 parent (paper: 59 answers at dist 1).
	as := runQuery(t, L1, queryText(t, "Q12"), automaton.Relax, 100)
	if len(as) < 5 {
		t.Errorf("Q12 RELAX = %d answers, want ≥ 5", len(as))
	}
	dist1 := 0
	for _, a := range as {
		if a.Dist == 0 {
			t.Error("Q12 RELAX returned a distance-0 answer but exact is empty")
		}
		if a.Dist == 1 {
			dist1++
		}
	}
	if dist1 == 0 {
		t.Error("Q12 RELAX returned no distance-1 answers (Level 1 relaxation)")
	}
	// RELAX on Q8 finds nothing (no applicable rule), as in the paper.
	if n := len(runQuery(t, L1, queryText(t, "Q8"), automaton.Relax, 100)); n != 0 {
		t.Errorf("Q8 RELAX = %d answers, want 0", n)
	}
}

func TestQ10RelaxFindsSiblingOccupations(t *testing.T) {
	// RELAX Q10: Librarians relaxes to Information Professionals, matching
	// archivists, curators, records managers at distance 1 (paper: 100
	// answers, 40 at distance 1 on L1).
	exact := runQuery(t, L1, queryText(t, "Q10"), automaton.Exact, 1000)
	relax := runQuery(t, L1, queryText(t, "Q10"), automaton.Relax, 1000)
	if len(relax) <= len(exact) {
		t.Errorf("RELAX Q10 = %d answers, exact = %d; want more under RELAX", len(relax), len(exact))
	}
	sawDist1 := false
	for _, a := range relax {
		if a.Dist == 1 {
			sawDist1 = true
		}
	}
	if !sawDist1 {
		t.Error("RELAX Q10 returned no distance-1 answers")
	}
}

func TestExactCountsGrowWithScale(t *testing.T) {
	n1 := len(runQuery(t, L1, queryText(t, "Q3"), automaton.Exact, 1<<20))
	n2 := len(runQuery(t, L2, queryText(t, "Q3"), automaton.Exact, 1<<20))
	if n2 <= n1 {
		t.Errorf("Q3 exact: L1=%d L2=%d; want growth with scale", n1, n2)
	}
}

func TestAllQueriesParseAndRun(t *testing.T) {
	g, ont := Generate(L1)
	for _, spec := range Queries() {
		q, err := query.Parse(spec.Text)
		if err != nil {
			t.Errorf("%s: %v", spec.ID, err)
			continue
		}
		it, err := execQuery(g, ont, q, core.Options{}, core.ExecOptions{})
		if err != nil {
			t.Errorf("%s: open: %v", spec.ID, err)
			continue
		}
		for i := 0; i < 5; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
	}
	if len(StudyQueries()) != 6 {
		t.Errorf("StudyQueries = %d entries, want 6", len(StudyQueries()))
	}
}

// execQuery prepares q under opts and starts one execution of it under eo.
func execQuery(g *graph.Graph, ont *ontology.Ontology, q *core.Query, opts core.Options, eo core.ExecOptions) (*core.Execution, error) {
	p, err := core.PrepareQuery(g, ont, q, opts)
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background(), eo)
}
