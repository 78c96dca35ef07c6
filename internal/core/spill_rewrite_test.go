package core

import (
	"maps"
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

// TestRewriteEquivalence checks rewrite invariance: an expression and a
// hand-written language-equivalent rewrite of it (Fletcher et al.'s algebra)
// both answer exactly what the reference evaluator computes for the original.
func TestRewriteEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	ont := testOnt()
	pairs := [][2]string{
		{"(p*)*", "p*"}, {"p|p", "p"}, {"p*.p*", "p*"}, {"()|q", "q?"},
		{"(p?)+", "p*"}, {"(p|p).(q|q)", "p.q"}, {"(p+)?", "p*"}, {"p*.p+", "p+"},
	}
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		pair := pairs[rng.Intn(len(pairs))]
		subj := []string{"?X", "n0"}[rng.Intn(2)]
		orig := conj(subj, pair[0], "?Y", automaton.Exact)
		rewritten := conj(subj, pair[1], "?Y", automaton.Exact)
		checkEquivalence(t, g, ont, orig, Options{}, false, 0)
		checkEquivalence(t, g, ont, rewritten, Options{}, false, 0)
		if a, b := refConjunct(t, g, ont, orig, Options{}), refConjunct(t, g, ont, rewritten, Options{}); !maps.Equal(a, b) {
			t.Fatalf("%s and %s answer differently: %v vs %v", pair[0], pair[1], a, b)
		}
	}
}
