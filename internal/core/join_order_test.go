package core

import (
	"math"
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// TestJoinOrderInvariance: every permutation of a query's conjuncts answers
// the same rows as the body order.
func TestJoinOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	ont := testOnt()
	body := []Conjunct{
		conj("?X", "p", "?Y", automaton.Exact),
		conj("?Y", "q", "?Z", automaton.Exact),
		conj("?Z", "r", "?W", automaton.Exact),
	}
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, ont)
		want := collectQuery(t, g, ont, &Query{Head: []string{"X", "Z"}, Conjuncts: body}, Options{})
		for _, perm := range perms {
			q := &Query{Head: []string{"X", "Z"}}
			for _, i := range perm {
				q.Conjuncts = append(q.Conjuncts, body[i])
			}
			compareQueryResults(t, want, collectQuery(t, g, ont, q, Options{}))
		}
	}
}

// --- helpers ---------------------------------------------------------------

func collectQuery(t *testing.T, g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options) []QueryAnswer {
	t.Helper()
	it, err := execQuery(g, ont, q, opts, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return drainQuery(t, it, math.MaxInt)
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
