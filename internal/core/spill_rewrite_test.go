package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
)

// Spilling must not change answers, only bound resident memory.
func TestSpillEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	ont := testOnt()
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, ont)
		re := []string{"p", "p.q", "p|q", "p*"}[rng.Intn(4)]
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], re, "?Y", automaton.Approx)
		opts := Options{SpillThreshold: 8, SpillDir: t.TempDir()}
		checkEquivalence(t, g, ont, c, opts, false, 0)
	}
}

func TestSpillActuallySpillsOnBlowup(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("?X", "p.p", "?Y", automaton.Approx)
	it, err := OpenConjunct(g, ont, c, Options{SpillThreshold: 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 1000)
	if len(as) == 0 {
		t.Fatal("no answers with spilling enabled")
	}
	// Compare against the reference to be sure nothing was lost.
	ref := refConjunct(t, g, ont, c, Options{})
	if len(as) != len(ref) {
		t.Fatalf("spilled run found %d answers, reference %d", len(as), len(ref))
	}
}

func TestSpillWithBudgetStillErrs(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("?X", "p*", "?Y", automaton.Approx)
	it, err := OpenConjunct(g, ont, c, Options{SpillThreshold: 4, SpillDir: t.TempDir(), MaxTuples: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, ok, err := it.Next()
		if err == ErrTupleBudget {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("completed under a 10-tuple budget")
		}
	}
	t.Fatal("budget never hit with spilling enabled")
}

// Rewriting must preserve answers (language preservation end to end).
func TestRewriteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	ont := testOnt()
	res := []string{"(p*)*", "p|p", "p*.p*", "()|q", "(p?)+", "(p|p).(q|q)"}
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], res[rng.Intn(len(res))], "?Y", automaton.Exact)
		checkEquivalence(t, g, ont, c, Options{Rewrite: true}, false, 0)
	}
}

func TestRewriteShrinksAutomaton(t *testing.T) {
	g, ont := tinyGraph(t)
	// ((p*)*)* compiles to more states without rewriting.
	c := conj("?X", "((p*)*)*", "?Y", automaton.Exact)

	plain, err := compileConjunct(g, ont, c, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := compileConjunct(g, ont, c, Options{Rewrite: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.auts[0].NumStates > plain.auts[0].NumStates {
		t.Fatalf("rewrite grew the automaton: %d vs %d states",
			rewritten.auts[0].NumStates, plain.auts[0].NumStates)
	}
}
