package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
)

// The rare-side heuristic must never change the answer set, only the
// direction of evaluation.
func TestRareSideEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	ont := testOnt()
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, ont)
		re := []string{"p", "p.q", "p|q", "p.q-", "p*", "type-"}[rng.Intn(6)]
		for _, mode := range []automaton.Mode{automaton.Exact, automaton.Approx} {
			c := conj("?X", re, "?Y", mode)
			checkEquivalence(t, g, ont, c, Options{RareSide: true}, false, 0)
		}
	}
}

// On a skewed graph the heuristic must pick the rare end: many p-sources,
// one p-target with the follow-up label.
func TestRareSidePicksRareEnd(t *testing.T) {
	b := graph.NewBuilder()
	hub := b.AddNode("hub")
	for i := 0; i < 200; i++ {
		n := b.AddNode("src" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+i/100)))
		if err := b.AddEdge(n, "p", hub); err != nil {
			t.Fatal(err)
		}
	}
	rare := b.AddNode("rare")
	if err := b.AddEdge(hub, "q", rare); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()

	c := conj("?X", "p.q", "?Y", automaton.Exact)

	plain, err := OpenConjunct(g, nil, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rareSide, err := OpenConjunct(g, nil, c, Options{RareSide: true})
	if err != nil {
		t.Fatal(err)
	}
	a1 := drain(t, plain, 1<<20)
	a2 := drain(t, rareSide, 1<<20)
	if len(a1) != len(a2) {
		t.Fatalf("answer counts differ: %d vs %d", len(a1), len(a2))
	}
	s1, s2 := plain.Stats(), rareSide.Stats()
	if s2.TuplesAdded >= s1.TuplesAdded {
		t.Fatalf("rare-side did not reduce work: %d vs %d tuples", s2.TuplesAdded, s1.TuplesAdded)
	}
}

// The heuristic must leave constant-endpoint and same-variable conjuncts
// untouched.
func TestRareSideSkipsNonCase3(t *testing.T) {
	g, ont := tinyGraph(t)
	for _, c := range []Conjunct{
		conj("a", "p.p", "?X", automaton.Exact),
		conj("?X", "p.p", "c", automaton.Exact),
		conj("?X", "p.p.p", "?X", automaton.Exact),
	} {
		checkEquivalence(t, g, ont, c, Options{RareSide: true}, false, 0)
	}
}
