package omega

import (
	"testing"
)

// Integration tests exercising the full public stack (parser → planner →
// automata → evaluator → ranked join) over the generated workloads.

func l4allEngine(t testing.TB) *Engine {
	t.Helper()
	g, ont, err := GenerateL4All("L1")
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(g, ont)
}

func TestIntegrationMultiConjunctL4All(t *testing.T) {
	eng := l4allEngine(t)
	// Episodes followed by an episode that carries a job event: a 2-conjunct
	// CRP query joining on ?Y.
	rows, err := eng.QueryText("(?X, ?Z) <- (?X, next, ?Y), (?Y, job, ?Z)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no joined answers on L1")
	}
	g := eng.Graph()
	nextID, _ := g.Label("next")
	jobID, _ := g.Label("job")
	for _, r := range got {
		if r.Dist != 0 {
			t.Fatalf("exact join produced distance %d", r.Dist)
		}
		// Verify each row by direct graph inspection: ?X -next-> m -job-> ?Z.
		x, z := r.Nodes[0], r.Nodes[1]
		okRow := false
		for _, m := range g.Neighbors(x, nextID, Out) {
			if g.HasEdge(m, jobID, z) {
				okRow = true
				break
			}
		}
		if !okRow {
			t.Fatalf("row %v not witnessed in the graph", r.Labels)
		}
	}
}

func TestIntegrationMixedModeJoin(t *testing.T) {
	eng := l4allEngine(t)
	// First conjunct exact, second relaxed: totals are sums of distances.
	rows, err := eng.QueryText("(?X, ?Z) <- (?X, qualif, ?Y), RELAX (?Y, level, ?Z)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no answers")
	}
	sawRelaxed := false
	last := -1
	for _, r := range got {
		if r.Dist < last {
			t.Fatalf("join order regressed: %d after %d", r.Dist, last)
		}
		last = r.Dist
		if r.Dist > 0 {
			sawRelaxed = true
		}
	}
	if !sawRelaxed {
		t.Log("no relaxed rows in top-200 (acceptable: exact rows may dominate)")
	}
}

// TestIntegrationRewriteAndRareSide: a hand-written language-preserving
// rewrite of the path expression, the rare-side plan, and both together
// answer what the query as written answers.
func TestIntegrationRewriteAndRareSide(t *testing.T) {
	eng := l4allEngine(t)
	const text, rewritten = "(?X, ?Y) <- (?X, (next*)*.job, ?Y)", "(?X, ?Y) <- (?X, next*.job, ?Y)"
	base, err := eng.QueryText(text)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Collect(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		text string
		opts Options
	}{{rewritten, Options{}}, {text, Options{RareSide: true}}, {rewritten, Options{RareSide: true}}} {
		rows, err := eng.WithOptions(v.opts).QueryText(v.text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.Collect(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s with %+v changed the answer count: %d vs %d", v.text, v.opts, len(got), len(want))
		}
	}
}

func TestIntegrationFlexOnYAGO(t *testing.T) {
	g, ont := GenerateYAGO(0.05)
	eng := NewEngine(g, ont)
	// FLEX combines both operators: the broken Q3 gains APPROX's edit
	// answers and RELAX's class-ancestor answers in one ranked stream.
	rows, err := eng.QueryTextMode("(?X) <- (wordnet_ziggurat, type-.locatedIn-, ?X)", Flex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("FLEX found nothing on the broken query")
	}
	for _, r := range got {
		if r.Dist == 0 {
			t.Fatal("FLEX returned distance-0 answers but exact is empty")
		}
	}
}

func TestIntegrationDeterministicAcrossRuns(t *testing.T) {
	run := func() []Row {
		eng := l4allEngine(t)
		rows, err := eng.QueryTextMode("(?X) <- (Librarians, type-, ?X)", Relax)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.Collect(50)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i].Labels[0] != b[i].Labels[0] || a[i].Dist != b[i].Dist {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
