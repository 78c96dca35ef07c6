package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// FLEX mode (extension): both APPROX and RELAX augmentations at once.
func TestFlexCombinesOperators(t *testing.T) {
	g, ont := tinyGraph(t)
	// (a, q, ?X): exact answer c. APPROX alone finds b at distance 1 (edit);
	// RELAX alone finds b at distance 1 (sibling p under link). FLEX finds
	// both kinds of flexibility — check that at least the union arrives and
	// distances stay minimal.
	c := conj("a", "q", "?X", automaton.Flex)
	it, err := OpenConjunct(g, ont, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := answersAsMap(t, drain(t, it, 100))
	ref := refConjunct(t, g, ont, c, Options{})
	if len(got) != len(ref) {
		t.Fatalf("FLEX answers = %d, reference %d", len(got), len(ref))
	}
	for k, d := range ref {
		if got[k] != d {
			t.Fatalf("FLEX pair %x: dist %d, reference %d", k, got[k], d)
		}
	}
}

func TestFlexAgainstReferenceRandom(t *testing.T) {
	ont := testOnt()
	for trial := 0; trial < 8; trial++ {
		g := randomGraphSeeded(t, int64(700+trial))
		c := conj("?X", "p.q", "?Y", automaton.Flex)
		checkEquivalence(t, g, ont, c, Options{}, false, 0)
	}
}

func randomGraphSeeded(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	return randomGraph(rand.New(rand.NewSource(seed)), testOnt())
}

// TestRelaxRule2EndToEnd exercises the domain/range relaxation through the
// full evaluation stack: the property edge is missing in the data, but the
// subject's type edge to the property's domain class provides an answer.
func TestRelaxRule2EndToEnd(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "paper1", "type", "Publication")
	mustAdd(t, b, "paper1", "cites", "paper2")
	mustAdd(t, b, "draft1", "type", "Publication") // has no cites edge
	g := b.Freeze()

	ont := ontology.New()
	ont.SetDomain("cites", "Publication")

	// (draft1, cites, ?X) exact: nothing. With rule (ii): draft1 −type→
	// Publication at cost γ.
	c := conj("draft1", "cites", "?X", automaton.Relax)
	it, err := OpenConjunct(g, ont, c, Options{EnableRule2: true, Relax: automaton.RelaxCosts{Beta: 1, Gamma: 3}})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	if len(as) != 1 {
		t.Fatalf("rule (ii) answers = %+v, want exactly the domain class", as)
	}
	pub, _ := g.LookupNode("Publication")
	if as[0].Dst != pub || as[0].Dist != 3 {
		t.Fatalf("answer = %+v, want (draft1, Publication, 3)", as[0])
	}

	// Rule (ii) disabled: nothing.
	it2, err := OpenConjunct(g, ont, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drain(t, it2, 10); len(as) != 0 {
		t.Fatalf("rule (ii) fired while disabled: %+v", as)
	}
}

func TestRelaxRule2ReverseUsesRange(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "paper2", "type", "Publication")
	g := b.Freeze()
	ont := ontology.New()
	ont.SetRange("cites", "Publication")

	// (?X, cites, paper2) → Case 2 → (paper2, cites−, ?X); rule (ii) on the
	// reversed edge uses range(cites).
	c := conj("?X", "cites", "paper2", automaton.Relax)
	it, err := OpenConjunct(g, ont, c, Options{EnableRule2: true})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	if len(as) != 1 {
		t.Fatalf("answers = %+v, want one", as)
	}
	pub, _ := g.LookupNode("Publication")
	// Src is the ?X binding (the type target), Dst the constant.
	if as[0].Src != pub {
		t.Fatalf("answer = %+v, want ?X = Publication", as[0])
	}
}

func TestDistanceAwarePhases(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("a", "p.p", "?X", automaton.Approx)
	it, err := OpenConjunct(g, ont, c, Options{DistanceAware: true, MaxPsi: 3})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it, 1000)
	st := it.Stats()
	if st.Phases < 2 {
		t.Fatalf("distance-aware ran %d phases, want ≥ 2", st.Phases)
	}
}

func TestDistanceAwareStopsWithoutPruning(t *testing.T) {
	// Exact-shaped automaton under distance-aware: phase 0 finds everything
	// and nothing is pruned, so evaluation must stop after one phase even
	// with a huge MaxPsi.
	g, ont := tinyGraph(t)
	c := conj("a", "p", "?X", automaton.Relax) // p has a parent but no data beyond dist 1
	it, err := OpenConjunct(g, ont, c, Options{DistanceAware: true, MaxPsi: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it, 1000)
	st := it.Stats()
	if st.Phases > 4 {
		t.Fatalf("distance-aware kept stepping: %d phases", st.Phases)
	}
}

func TestDisjunctionAdaptiveOrder(t *testing.T) {
	// Branch sizes differ wildly: q (1 edge) vs p (many edges). After the
	// distance-0 phase the cheap branch must be evaluated first; observable
	// effect: all answers still arrive, deduplicated, in monotone order.
	b := graph.NewBuilder()
	mustAdd(t, b, "s", "q", "t1")
	for i := 0; i < 30; i++ {
		mustAdd(t, b, "s", "p", "n"+string(rune('A'+i)))
	}
	g := b.Freeze()
	c := conj("s", "p|q", "?X", automaton.Approx)
	it, err := OpenConjunct(g, nil, c, Options{Disjunction: true, MaxPsi: 1})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 1000)
	if len(as) < 31 {
		t.Fatalf("disjunction lost answers: %d < 31", len(as))
	}
	seen := map[graph.NodeID]bool{}
	for _, a := range as {
		if seen[a.Dst] {
			t.Fatalf("duplicate answer %v across branches", a)
		}
		seen[a.Dst] = true
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.BatchSize != 100 {
		t.Errorf("BatchSize default = %d, want 100", o.BatchSize)
	}
	if o.Edit.Insert != 1 || o.Edit.Delete != 1 || o.Edit.Substitute != 1 {
		t.Errorf("Edit defaults = %+v, want unit costs", o.Edit)
	}
	if o.Relax.Beta != 1 {
		t.Errorf("Relax defaults = %+v, want unit costs", o.Relax)
	}
	// Custom values survive.
	o2 := Options{BatchSize: 7, Edit: automaton.EditCosts{Insert: 2, Delete: 2, Substitute: 2}}.withDefaults()
	if o2.BatchSize != 7 || o2.Edit.Insert != 2 {
		t.Errorf("custom options clobbered: %+v", o2)
	}
}

func TestPhi(t *testing.T) {
	o := Options{
		Edit:  automaton.EditCosts{Insert: 4, Delete: 6, Substitute: 5},
		Relax: automaton.RelaxCosts{Beta: 3, Gamma: 7},
	}
	if p := o.phi(automaton.Approx); p != 4 {
		t.Errorf("phi(Approx) = %d, want 4", p)
	}
	if p := o.phi(automaton.Relax); p != 3 {
		t.Errorf("phi(Relax) = %d, want 3", p)
	}
	if p := o.phi(automaton.Flex); p != 3 {
		t.Errorf("phi(Flex) = %d, want 3", p)
	}
	if p := o.phi(automaton.Exact); p != 1 {
		t.Errorf("phi(Exact) = %d, want 1", p)
	}
}

func TestTermString(t *testing.T) {
	if Var("X").String() != "?X" {
		t.Errorf("Var rendering: %s", Var("X"))
	}
	if Const("Work Episode").String() != "Work Episode" {
		t.Errorf("Const rendering: %s", Const("Work Episode"))
	}
}

func TestBudgetErrorThroughJoin(t *testing.T) {
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Approx),
			conj("?Y", "q", "?Z", automaton.Approx),
		},
	}
	it, err := execQuery(g, ont, q, Options{}, ExecOptions{MaxTuples: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, ok, err := it.Next()
		if err == ErrTupleBudget {
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !ok {
			t.Fatal("join completed under a 3-tuple budget")
		}
	}
	t.Fatal("budget error never surfaced through the join")
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder().Freeze()
	it, err := OpenConjunct(g, nil, conj("?X", "p*", "?Y", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drain(t, it, 10); len(as) != 0 {
		t.Fatalf("empty graph produced answers: %+v", as)
	}
}

func TestSingleNodeGraphEpsilon(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("only")
	g := b.Freeze()
	it, err := OpenConjunct(g, nil, conj("?X", "p*", "?Y", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	if len(as) != 1 || as[0].Src != as[0].Dst || as[0].Dist != 0 {
		t.Fatalf("p* on single isolated node = %+v, want [(only,only,0)]", as)
	}
}
