package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
)

// drainBoth runs the same conjunct with the bucket-queue D_R and with the
// naive reference dictionary and requires the two ranked answer sequences to
// be identical element by element — same pairs, same distances, same order.
func drainBoth(t *testing.T, mkIter func(opts Options) Iterator, opts Options, limit int) {
	t.Helper()
	fast := drain(t, mkIter(opts), limit)
	ref := opts
	ref.RefDict = true
	slow := drain(t, mkIter(ref), limit)
	if len(fast) != len(slow) {
		t.Fatalf("bucket queue emitted %d answers, reference dict %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("answer %d differs: bucket queue %+v, reference dict %+v", i, fast[i], slow[i])
		}
	}
}

// TestDictDifferentialRandomized cross-checks the bucket-queue dictionary
// against RefDict over randomized graphs, expressions, modes, and evaluator
// batch sizes.
func TestDictDifferentialRandomized(t *testing.T) {
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
		opts := Options{BatchSize: randBatchSize(rng, 1, 7, 100)}
		mk := func(o Options) Iterator {
			it, err := OpenConjunct(g, ont, c, o)
			if err != nil {
				t.Fatalf("trial %d: OpenConjunct(%v): %v", trial, c, err)
			}
			return it
		}
		drainBoth(t, mk, opts, 10000)
	}
}

// TestDictDifferentialTinyGraphAllModes pins the equivalence on the fixed
// fixture across every mode and both head shapes, to keep a deterministic
// regression alongside the randomized sweep.
func TestDictDifferentialTinyGraphAllModes(t *testing.T) {
	g, ont := tinyGraph(t)
	cases := []struct {
		subj, re, obj string
		mode          automaton.Mode
	}{
		{"a", "p.p", "?X", automaton.Exact},
		{"?X", "p.p", "c", automaton.Exact},
		{"?X", "p|q", "?Y", automaton.Exact},
		{"a", "p.p", "?X", automaton.Approx},
		{"?X", "p.q", "?Y", automaton.Approx},
		{"C1", "type-", "?X", automaton.Relax},
		{"?X", "q.type-", "?Y", automaton.Relax},
		{"?X", "p", "?X", automaton.Exact},
	}
	for _, tc := range cases {
		c := conj(tc.subj, tc.re, tc.obj, tc.mode)
		mk := func(o Options) Iterator {
			it, err := OpenConjunct(g, ont, c, o)
			if err != nil {
				t.Fatalf("OpenConjunct(%v): %v", c, err)
			}
			return it
		}
		drainBoth(t, mk, Options{}, 10000)
	}
}
