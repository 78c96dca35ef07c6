package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// execQuery prepares q under opts and starts one execution of it under eo.
func execQuery(g *graph.Graph, ont *ontology.Ontology, q *Query, opts Options, eo ExecOptions) (*Execution, error) {
	p, err := PrepareQuery(g, ont, q, opts)
	if err != nil {
		return nil, err
	}
	return p.Exec(context.Background(), eo)
}

func drainQuery(t *testing.T, it *Execution, limit int) []QueryAnswer {
	t.Helper()
	var out []QueryAnswer
	last := int32(-1)
	for len(out) < limit {
		a, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		if a.Dist < last {
			t.Fatalf("query answers not monotone: %d after %d", a.Dist, last)
		}
		last = a.Dist
		out = append(out, a)
	}
	return out
}

func TestValidate(t *testing.T) {
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{conj("?X", "p", "?Y", automaton.Exact)}}
	if err := q.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []*Query{
		{Head: []string{"X"}},
		{Head: []string{"Z"}, Conjuncts: []Conjunct{conj("?X", "p", "?Y", automaton.Exact)}},
		{Head: nil, Conjuncts: []Conjunct{conj("?X", "p", "?Y", automaton.Exact)}},
		{Head: []string{"X"}, Conjuncts: []Conjunct{{Subject: Var("X"), Object: Var("Y")}}},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestSingleConjunctQueryProjection(t *testing.T) {
	g, ont := tinyGraph(t)
	// Head (?X) over (?X, p, ?Y): sources of p edges, deduplicated.
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{conj("?X", "p", "?Y", automaton.Exact)}}
	it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	as := drainQuery(t, it, 100)
	seen := map[graph.NodeID]bool{}
	for _, a := range as {
		if len(a.Nodes) != 1 {
			t.Fatalf("answer arity %d, want 1", len(a.Nodes))
		}
		if seen[a.Nodes[0]] {
			t.Fatalf("duplicate head binding %d", a.Nodes[0])
		}
		seen[a.Nodes[0]] = true
	}
	if len(as) != 3 { // a, b, c are sources of p edges
		t.Fatalf("got %d head bindings, want 3", len(as))
	}
}

func TestTwoConjunctJoin(t *testing.T) {
	// Path join: (?X, p, ?Y), (?Y, p, ?Z) ≡ p.p pairs.
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Y", "p", "?Z", automaton.Exact),
		},
	}
	it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainQuery(t, it, 100)

	// Reference: single conjunct with p.p.
	q2 := &Query{Head: []string{"X", "Z"}, Conjuncts: []Conjunct{conj("?X", "p.p", "?Z", automaton.Exact)}}
	it2, err := execQuery(g, ont, q2, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := drainQuery(t, it2, 100)

	key := func(a QueryAnswer) string { return fmt.Sprintf("%v", a.Nodes) }
	gotKeys := map[string]bool{}
	for _, a := range got {
		gotKeys[key(a)] = true
	}
	if len(got) != len(want) {
		t.Fatalf("join gave %d rows, composition gives %d", len(got), len(want))
	}
	for _, a := range want {
		if !gotKeys[key(a)] {
			t.Fatalf("join missing row %v", a.Nodes)
		}
	}
}

func TestJoinSharedVariableConstraint(t *testing.T) {
	g, ont := tinyGraph(t)
	// (?X, p, ?Y), (?X, q, ?Z): X must have both a p and a q edge; only a.
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?X", "q", "?Z", automaton.Exact),
		},
	}
	it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	as := drainQuery(t, it, 100)
	if len(as) != 1 || g.NodeLabel(as[0].Nodes[0]) != "a" {
		t.Fatalf("answers = %+v, want just a", as)
	}
}

func TestJoinEmptyConjunctShortCircuits(t *testing.T) {
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Y", "nolabel", "?Z", automaton.Exact),
		},
	}
	it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drainQuery(t, it, 10); len(as) != 0 {
		t.Fatalf("answers = %+v, want none", as)
	}
}

func TestJoinCrossProduct(t *testing.T) {
	// Disjoint variables: no join key, so every pair of conjunct answers
	// combines.
	b := graph.NewBuilder()
	mustAdd(t, b, "a", "p", "b")
	mustAdd(t, b, "c", "q", "d")
	mustAdd(t, b, "e", "q", "f")
	g := b.Freeze()
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Z", "q", "?W", automaton.Exact),
		},
	}
	it, err := execQuery(g, nil, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drainQuery(t, it, 10); len(as) != 2 {
		t.Fatalf("cross product rows = %+v, want 2", as)
	}
}

func TestJoinTotalDistanceOrdering(t *testing.T) {
	g, ont := tinyGraph(t)
	// Two APPROX conjuncts: totals are sums; ordering must be by sum.
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Approx),
			conj("?Y", "q", "?Z", automaton.Approx),
		},
	}
	it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	as := drainQuery(t, it, 200) // monotonicity asserted inside drainQuery
	if len(as) == 0 {
		t.Fatal("no joined answers")
	}
	if as[0].Dist != 0 {
		t.Fatalf("first joined answer at distance %d, want 0 (a-p->b, b?q) ", as[0].Dist)
	}
}

// Brute-force cross-check of the ranked join on random graphs: join of the
// full per-conjunct answer sets, minimum total distance per head projection.
func TestQuickJoinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ont := testOnt()
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		q := &Query{
			Head: []string{"X", "Z"},
			Conjuncts: []Conjunct{
				conj("?X", []string{"p", "p|q"}[rng.Intn(2)], "?Y", automaton.Exact),
				conj("?Y", []string{"q", "r", "q-"}[rng.Intn(3)], "?Z", automaton.Approx),
			},
		}
		it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainQuery(t, it, 1<<20)

		// Brute force from the per-conjunct references.
		ref1 := refConjunct(t, g, ont, q.Conjuncts[0], Options{})
		ref2 := refConjunct(t, g, ont, q.Conjuncts[1], Options{})
		type row struct{ x, z graph.NodeID }
		want := map[row]int32{}
		for k1, d1 := range ref1 {
			x, y := graph.NodeID(k1>>32), graph.NodeID(uint32(k1))
			for k2, d2 := range ref2 {
				y2, z := graph.NodeID(k2>>32), graph.NodeID(uint32(k2))
				if y != y2 {
					continue
				}
				r := row{x, z}
				if old, ok := want[r]; !ok || d1+d2 < old {
					want[r] = d1 + d2
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: join rows %d, brute force %d", trial, len(got), len(want))
		}
		for _, a := range got {
			r := row{a.Nodes[0], a.Nodes[1]}
			d, ok := want[r]
			if !ok {
				t.Fatalf("trial %d: unexpected row %v", trial, a.Nodes)
			}
			if d != a.Dist {
				t.Fatalf("trial %d: row %v dist %d, brute force %d", trial, a.Nodes, a.Dist, d)
			}
		}
	}
}

func TestQueryAnswerBinding(t *testing.T) {
	a := QueryAnswer{Head: []string{"X", "Y"}, Nodes: []graph.NodeID{4, 7}}
	if a.Binding("Y") != 7 || a.Binding("X") != 4 {
		t.Fatalf("Binding lookup broken: %+v", a)
	}
	if a.Binding("Z") != graph.InvalidNode {
		t.Fatal("Binding of unknown var should be InvalidNode")
	}
}

func TestThreeConjunctJoin(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "1", "p", "2")
	mustAdd(t, b, "2", "q", "3")
	mustAdd(t, b, "3", "r", "4")
	mustAdd(t, b, "2", "q", "5")
	g := b.Freeze()
	q := &Query{
		Head: []string{"A", "D"},
		Conjuncts: []Conjunct{
			conj("?A", "p", "?B", automaton.Exact),
			conj("?B", "q", "?C", automaton.Exact),
			conj("?C", "r", "?D", automaton.Exact),
		},
	}
	it, err := execQuery(g, nil, q, Options{}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	as := drainQuery(t, it, 10)
	if len(as) != 1 {
		t.Fatalf("answers = %+v, want exactly one chain", as)
	}
	if g.NodeLabel(as[0].Nodes[0]) != "1" || g.NodeLabel(as[0].Nodes[1]) != "4" {
		t.Fatalf("chain = %v", as[0].Nodes)
	}
}

func TestConjunctString(t *testing.T) {
	c := conj("UK", "isLocatedIn-.gradFrom", "?X", automaton.Approx)
	got := c.String()
	want := "APPROX (UK, isLocatedIn-.gradFrom, ?X)"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	c2 := conj("?X", "p", "?Y", automaton.Exact)
	if c2.String() != "(?X, p, ?Y)" {
		t.Fatalf("String = %q", c2.String())
	}
}

func TestDeterministicOrderWithinRound(t *testing.T) {
	g, ont := tinyGraph(t)
	q := &Query{
		Head: []string{"X", "Z"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("?Y", "_", "?Z", automaton.Exact),
		},
	}
	run := func() []QueryAnswer {
		it, err := execQuery(g, ont, q, Options{}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return drainQuery(t, it, 1000)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic row count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Nodes[0] != b[i].Nodes[0] || a[i].Nodes[1] != b[i].Nodes[1] {
			t.Fatalf("row %d differs across runs", i)
		}
	}
	// And rows are sorted within each distance round.
	byDist := map[int32][]QueryAnswer{}
	for _, r := range a {
		byDist[r.Dist] = append(byDist[r.Dist], r)
	}
	for d, rows := range byDist {
		sorted := sort.SliceIsSorted(rows, func(i, j int) bool {
			if rows[i].Nodes[0] != rows[j].Nodes[0] {
				return rows[i].Nodes[0] < rows[j].Nodes[0]
			}
			return rows[i].Nodes[1] < rows[j].Nodes[1]
		})
		if !sorted {
			t.Fatalf("rows at distance %d not sorted", d)
		}
	}
}
