package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// --- planner ---------------------------------------------------------------

func TestPlanQueryTreeOrdering(t *testing.T) {
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact), // var-var
			conj("?Y", "q", "c", automaton.Exact),  // one const
			conj("a", "r", "b", automaton.Exact),   // two consts
		},
	}
	order := planQueryTree(q)
	if order[0] != 2 {
		t.Fatalf("plan order = %v, want the two-constant conjunct first", order)
	}
	// Next pick prefers connection to bound vars; the const-const conjunct
	// binds nothing, so the single-const conjunct (fewer vars) goes next,
	// then the var-var conjunct connected through ?Y.
	if order[1] != 1 || order[2] != 0 {
		t.Fatalf("plan order = %v, want [2 1 0]", order)
	}
}

func TestPlanPrefersConnectedOverAnchored(t *testing.T) {
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Z", "q", "c", automaton.Exact),  // anchored but disconnected from ?X/?Y
			conj("?Y", "r", "?W", automaton.Exact), // connected to first pick
		},
	}
	order := planQueryTree(q)
	// First pick: the anchored conjunct (index 1). Then nothing connects to
	// ?Z, so connectivity is false for both remaining; the lower-score one…
	// both score 2 — body order wins: index 0 then 2.
	if order[0] != 1 {
		t.Fatalf("plan order = %v, want anchored first", order)
	}
	// After index 0 is placed, index 2 connects through ?Y.
	if order[1] != 0 || order[2] != 2 {
		t.Fatalf("plan order = %v, want [1 0 2]", order)
	}
}

func TestReorderConjunctsPreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	ont := testOnt()
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, ont)
		q := &Query{
			Head: []string{"X", "Z"},
			Conjuncts: []Conjunct{
				conj("?X", "p", "?Y", automaton.Exact),
				conj("?Y", "q", "?Z", automaton.Exact),
				conj("?Z", "r", "?W", automaton.Exact),
			},
		}
		plain := collectQuery(t, g, ont, q, Options{})
		planned := collectQuery(t, g, ont, q, Options{ReorderConjuncts: true})
		compareQueryResults(t, plain, planned)
	}
}

// --- helpers ---------------------------------------------------------------

func collectQuery(t *testing.T, g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options) []QueryAnswer {
	t.Helper()
	it, err := OpenQuery(g, ont, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out []QueryAnswer
	last := int32(-1)
	for {
		a, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if a.Dist < last {
			t.Fatalf("query answers not monotone: %d after %d", a.Dist, last)
		}
		last = a.Dist
		out = append(out, a)
	}
}

func compareQueryResults(t *testing.T, a, b []QueryAnswer) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	am := map[string]int32{}
	for _, r := range a {
		am[projKey(r.Nodes)] = r.Dist
	}
	for _, r := range b {
		d, ok := am[projKey(r.Nodes)]
		if !ok {
			t.Fatalf("row %v missing from the other result", r.Nodes)
		}
		if d != r.Dist {
			t.Fatalf("row %v distance %d vs %d", r.Nodes, r.Dist, d)
		}
	}
}
