package omega

import (
	"bytes"
	"strings"
	"testing"
)

func exampleGraph(t testing.TB) (*Graph, *Ontology) {
	t.Helper()
	b := NewGraphBuilder()
	for _, tr := range [][3]string{
		{"UK", "isLocatedIn", "Europe"},
		{"Oxford", "isLocatedIn", "UK"},
		{"Birkbeck", "isLocatedIn", "UK"},
		{"alice", "gradFrom", "Oxford"},
		{"bob", "gradFrom", "Birkbeck"},
		// An event located in the UK that happened in London: this is what
		// RELAX reaches when gradFrom relaxes to relationLocatedByObject
		// (paper Example 3: happenedIn becomes matchable).
		{"Festival", "isLocatedIn", "UK"},
		{"Festival", "happenedIn", "London"},
		{"alice", "type", "Student"},
		{"bob", "type", "Student"},
	} {
		if err := b.AddTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	ont := NewOntology()
	ont.AddSubproperty("gradFrom", "relationLocatedByObject")
	ont.AddSubproperty("happenedIn", "relationLocatedByObject")
	return b.Freeze(), ont
}

func TestEngineExactQuery(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	rows, err := eng.QueryText("(?X) <- (alice, gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Labels[0] != "Oxford" {
		t.Fatalf("rows = %+v, want [Oxford]", got)
	}
	if got[0].Dist != 0 {
		t.Fatalf("dist = %d, want 0", got[0].Dist)
	}
}

func TestEnginePaperExample1And2(t *testing.T) {
	// Example 1: the broken-direction query returns nothing.
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	rows, err := eng.QueryText("(?X) <- (UK, isLocatedIn-.gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rows.Collect(0)
	if len(got) != 0 {
		t.Fatalf("exact rows = %+v, want none (paper Example 1)", got)
	}

	// Example 2: APPROX corrects gradFrom to gradFrom− at distance 1.
	rows, err = eng.QueryText("(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = rows.Collect(10)
	found := map[string]int{}
	for _, r := range got {
		found[r.Labels[0]] = r.Dist
	}
	if d, ok := found["alice"]; !ok || d != 1 {
		t.Fatalf("APPROX rows = %+v, want alice at distance 1 (paper Example 2)", got)
	}
}

func TestEnginePaperExample3(t *testing.T) {
	// Example 3: RELAX relaxes gradFrom to its parent, matching happenedIn.
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	rows, err := eng.QueryText("(?X) <- RELAX (UK, isLocatedIn-.gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rows.Collect(10)
	for _, r := range got {
		if r.Labels[0] == "London" && r.Dist == 1 {
			return
		}
	}
	t.Fatalf("RELAX rows = %+v, want London at distance 1 via relationLocatedByObject", got)
}

func TestQueryTextModeOverride(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	rows, err := eng.QueryTextMode("(?X) <- (UK, isLocatedIn-.gradFrom, ?X)", Approx)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := rows.Collect(5)
	if len(got) == 0 {
		t.Fatal("mode override to APPROX produced no rows")
	}
}

func TestEngineWithOptions(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont).WithOptions(Options{MaxTuples: 1})
	rows, err := eng.QueryTextMode("(?X, ?Y) <- (?X, isLocatedIn, ?Y)", Approx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rows.Collect(100)
	if err != ErrTupleBudget {
		t.Fatalf("err = %v, want ErrTupleBudget", err)
	}
}

func TestRowsStats(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	rows, err := eng.QueryText("(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(10); err != nil {
		t.Fatal(err)
	}
	if rows.Stats().TuplesPopped == 0 {
		t.Fatal("stats not propagated through the public API")
	}
}

func TestRowStringRendering(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	rows, _ := eng.QueryText("(?X) <- (alice, gradFrom, ?X)")
	row, ok, err := rows.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	s := row.String()
	if !strings.Contains(s, "?X=Oxford") || !strings.Contains(s, "dist=0") {
		t.Fatalf("Row.String = %q", s)
	}
}

func TestParsePath(t *testing.T) {
	e, err := ParsePath("isLocatedIn-.gradFrom")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "isLocatedIn-.gradFrom" {
		t.Fatalf("round trip = %q", e.String())
	}
	if _, err := ParsePath("a..b"); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestSaveLoadGraphPublicAPI(t *testing.T) {
	g, _ := exampleGraph(t)
	var buf bytes.Buffer
	if err := SaveGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("graph round trip lost data")
	}
}

func TestSaveLoadOntologyPublicAPI(t *testing.T) {
	_, ont := exampleGraph(t)
	var buf bytes.Buffer
	if err := SaveOntology(&buf, ont); err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOntology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(o2.PropertyDescendants("relationLocatedByObject")) != 2 {
		t.Fatal("ontology round trip lost hierarchy")
	}
}

func TestGenerateL4AllWrapper(t *testing.T) {
	g, ont, err := GenerateL4All("L1")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || ont == nil {
		t.Fatal("empty L4All dataset")
	}
	if _, _, err := GenerateL4All("L9"); err == nil {
		t.Fatal("unknown scale accepted")
	}
	// Case-insensitive scale names.
	if _, _, err := GenerateL4All("l2"); err != nil {
		t.Fatalf("lowercase scale rejected: %v", err)
	}
}

func TestGenerateYAGOWrapper(t *testing.T) {
	g, ont := GenerateYAGO(0.05)
	if g.NumNodes() == 0 || ont == nil {
		t.Fatal("empty YAGO dataset")
	}
	if _, ok := g.LookupNode("UK"); !ok {
		t.Fatal("UK missing from YAGO dataset")
	}
}

func TestQueryListsComplete(t *testing.T) {
	if n := len(L4AllQueries()); n != 12 {
		t.Fatalf("L4AllQueries = %d, want 12 (Figure 4)", n)
	}
	if n := len(YAGOQueries()); n != 9 {
		t.Fatalf("YAGOQueries = %d, want 9 (Figure 9)", n)
	}
	g, ont, err := GenerateL4All("L1")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, ont)
	for _, q := range L4AllQueries() {
		if _, err := eng.QueryText(q.Text); err != nil {
			t.Errorf("%s: %v", q.ID, err)
		}
	}
}
