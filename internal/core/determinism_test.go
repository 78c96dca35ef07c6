package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
)

func TestSameOptionsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	ont := testOnt()
	modes := []automaton.Mode{automaton.Exact, automaton.Approx, automaton.Relax}
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, ont)
		re := equivalenceExprs[rng.Intn(len(equivalenceExprs))]
		subjects := []string{"?X", "n0", "n1"}
		objects := []string{"?Y", "n2", "?X"}
		mode := modes[rng.Intn(len(modes))]
		c := conj(subjects[rng.Intn(3)], re, objects[rng.Intn(3)], mode)
		opts := Options{
			BatchSize:    randBatchSize(rng, 1, 7, 100),
			NoFinalFirst: rng.Intn(4) == 0,
			NoSuccCache:  rng.Intn(4) == 0,
		}
		mk := func(o Options) Iterator {
			it, err := OpenConjunct(g, ont, c, o)
			if err != nil {
				t.Fatal(err)
			}
			return it
		}
		a := drain(t, mk(opts), 10000)
		b := drain(t, mk(opts), 10000)
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d answers", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d answer %d: %+v vs %+v (conj %v)", trial, i, a[i], b[i], c)
			}
		}
	}
}
