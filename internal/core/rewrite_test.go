package core

import (
	"maps"
	"math/rand"
	"testing"

	"omega/internal/automaton"
)

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
