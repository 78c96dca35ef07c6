package core

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
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

	// APPROX continuations through SpillDict's files: with one resident
	// tuple, every bucket but the hot one goes to disk, continuations
	// included, and comes back to resume its walk. Emission, order included,
	// is the unspilled run's.
	spilled := 0
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, ont)
		c := conj("n0", []string{"p.q", "p*", "(p|q).r"}[trial%3], "?Y", automaton.Approx)
		dir := t.TempDir()
		it, err := OpenConjunct(g, ont, c, Options{SpillThreshold: 1, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		got, dictConts, _ := drainSpilling(t, it, dir)
		spilled += dictConts
		plain, err := OpenConjunct(g, ont, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameEmission(t, got, drain(t, plain, 1<<20))
	}
	if spilled == 0 {
		t.Fatal("no continuation reached a SpillDict file at threshold 1")
	}
}

// drainSpilling drains it like drain, and after every answer counts the
// continuation records then in the spill files under dir, by the structure
// that wrote them: D_R's SpillDict (bucket-*.spill) and the deferred frontier
// (deferred-*.spill). A record is dstruct's fixed-width tuple encoding,
// little-endian v, n, s and d words, a final byte and a 3-byte slot; a
// negative s marks a continuation.
func drainSpilling(t *testing.T, it Iterator, dir string) (as []Answer, dictConts, deferredConts int) {
	t.Helper()
	const recBytes = 20
	count := func(pattern string) int {
		files, err := filepath.Glob(filepath.Join(dir, "omega-*", pattern))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off+recBytes <= len(data); off += recBytes {
				if int32(binary.LittleEndian.Uint32(data[off+8:])) < 0 {
					n++
				}
			}
		}
		return n
	}
	for {
		dictConts += count("bucket-*.spill")
		deferredConts += count("deferred-*.spill")
		a, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return as, dictConts, deferredConts
		}
		as = append(as, a)
	}
}

// sameEmission requires two answer streams to be identical, order included.
func sameEmission(t *testing.T, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("answer %d diverged: %+v, want %+v", i, got[i], want[i])
		}
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
