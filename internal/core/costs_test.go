package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
)

// Heterogeneous operation costs must still agree with the reference (plain
// mode: the §4.3 strategies only guarantee band-granular ordering there).
func TestQuickCustomEditCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	ont := testOnt()
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		opts := Options{
			Edit: automaton.EditCosts{
				Insert:     int32(1 + rng.Intn(3)),
				Delete:     int32(1 + rng.Intn(3)),
				Substitute: int32(1 + rng.Intn(3)),
			},
		}
		re := []string{"p", "p.q", "p|q"}[rng.Intn(3)]
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], re, "?Y", automaton.Approx)
		checkEquivalence(t, g, ont, c, opts, false, 0)
	}
}

func TestQuickCustomRelaxCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	ont := testOnt()
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, ont)
		opts := Options{
			Relax: automaton.RelaxCosts{Beta: int32(1 + rng.Intn(4)), Gamma: int32(1 + rng.Intn(4))},
		}
		re := []string{"p", "q", "type-", "p.q"}[rng.Intn(4)]
		c := conj([]string{"?X", "C1", "n0"}[rng.Intn(3)], re, "?Y", automaton.Relax)
		checkEquivalence(t, g, ont, c, opts, false, 0)
	}
}

// Frozen graphs and plans are safe for concurrent readers: many goroutines
// evaluating against the same graph must neither race nor disagree.
func TestConcurrentEvaluation(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("?X", "p.p|q", "?Y", automaton.Approx)

	it, err := OpenConjunct(g, ont, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := answersAsMap(t, drain(t, it, 1<<20))

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it, err := OpenConjunct(g, ont, c, Options{})
			if err != nil {
				errs <- err.Error()
				return
			}
			got := map[uint64]int32{}
			for {
				a, ok, err := it.Next()
				if err != nil {
					errs <- err.Error()
					return
				}
				if !ok {
					break
				}
				got[packPair(a.Src, a.Dst)] = a.Dist
			}
			if len(got) != len(baseline) {
				errs <- "answer sets diverged across goroutines"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDisjunctionStepsByCostGcd is the smallest case of ranked emission under
// Disjunction with costs that are not multiples of φ. Over n1 -a-> n0,
// APPROX (n0, a|b.b, ?Y) with insert 3, delete 3 and substitute 2 reaches n1
// at 2 (a substituted by the reversed edge) and n0 at 3 (a deleted). Stepped
// by φ = 2, phase ψ = 4 admits both 3 and 4: the b.b branch ran first and
// emitted n0 at 4 (two substitutions) before the a branch found it at 3.
func TestDisjunctionStepsByCostGcd(t *testing.T) {
	b := graph.NewBuilder()
	if err := b.AddTriple("n1", "a", "n0"); err != nil {
		t.Fatal(err)
	}
	g := b.Freeze()
	n0, _ := g.LookupNode("n0")
	n1, _ := g.LookupNode("n1")
	want := []Answer{{Src: n0, Dst: n1, Dist: 2}, {Src: n0, Dst: n0, Dist: 3}}
	c := conj("n0", "a|b.b", "?Y", automaton.Approx)
	edit := automaton.EditCosts{Insert: 3, Delete: 3, Substitute: 2}
	for _, opts := range []Options{
		{Edit: edit},
		{Edit: edit, Disjunction: true},
		{Edit: edit, Disjunction: true, DistanceAware: true},
		{Edit: edit, Disjunction: true, DistanceRestart: true},
		{Edit: edit, DistanceAware: true},
	} {
		it, err := OpenConjunct(g, nil, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, it, 100); !slices.Equal(got, want) {
			t.Errorf("Disjunction=%v DistanceAware=%v DistanceRestart=%v: emitted %v, want %v",
				opts.Disjunction, opts.DistanceAware, opts.DistanceRestart, got, want)
		}
	}
}

// TestQuickDisjunctionNonUniformCosts holds the ψ-phase drivers to the
// default plan on small random graphs with random operation costs 1–3: under
// Disjunction (resumable, distance-aware, restart) every pair comes out at
// the default plan's distance, and emission never decreases.
func TestQuickDisjunctionNonUniformCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(2207))
	ont := testOnt()
	exprs := []string{"p|q.q", "p.q|r", "(p.q)|r-", "p+|q", "_.p|q", "p*|q.r", "(_)+.q|q-", "p|q|r.p", "type-|p.type-"}
	modes := []automaton.Mode{automaton.Approx, automaton.Relax, automaton.Flex}
	cost := func() int32 { return int32(1 + rng.Intn(3)) }
	runs := 0
	for trial := 0; trial < 600; trial++ {
		g := smallCostGraph(rng)
		edit := automaton.EditCosts{Insert: cost(), Delete: cost(), Substitute: cost()}
		relax := automaton.RelaxCosts{Beta: cost(), Gamma: cost()}
		mode := modes[rng.Intn(len(modes))]
		c := conj([]string{"?X", "n0", "C1"}[rng.Intn(3)], exprs[rng.Intn(len(exprs))], "?Y", mode)
		// A cap past every distance these graphs reach: the default plan
		// has none.
		base := Options{Edit: edit, Relax: relax, MaxPsi: 200}
		it, err := OpenConjunct(g, ont, c, base)
		if err != nil {
			t.Fatal(err)
		}
		want := answersAsMap(t, drain(t, it, 1<<20))
		for _, v := range []Options{
			{Disjunction: true},
			{Disjunction: true, DistanceAware: true},
			{Disjunction: true, DistanceRestart: true},
		} {
			opts := base
			opts.Disjunction, opts.DistanceAware, opts.DistanceRestart = v.Disjunction, v.DistanceAware, v.DistanceRestart
			it, err := OpenConjunct(g, ont, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, it, 1<<20)
			runs++
			name := fmt.Sprintf("trial %d %s edit=%+v relax=%+v DistanceAware=%v DistanceRestart=%v",
				trial, c, edit, relax, v.DistanceAware, v.DistanceRestart)
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Fatalf("%s: emitted %d after %d", name, got[i].Dist, got[i-1].Dist)
				}
			}
			if gm := answersAsMap(t, got); !maps.Equal(gm, want) {
				t.Fatalf("%s:\n got %v\nwant %v", name, gm, want)
			}
		}
	}
	t.Logf("%d Disjunction runs agree with the default plan", runs)
}

// smallCostGraph is a random graph of at most 10 nodes over labels p, q and
// r, with some nodes typed into testOnt's classes.
func smallCostGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	n := 2 + rng.Intn(9)
	for i := range n {
		b.AddNode(fmt.Sprintf("n%d", i))
	}
	for range rng.Intn(3 * n) {
		_ = b.AddTriple(fmt.Sprintf("n%d", rng.Intn(n)), []string{"p", "q", "r"}[rng.Intn(3)], fmt.Sprintf("n%d", rng.Intn(n)))
	}
	for _, cls := range []string{"C0", "C1", "C2"} {
		b.AddNode(cls)
	}
	for i := range n {
		if rng.Intn(3) == 0 {
			_ = b.AddTriple(fmt.Sprintf("n%d", i), "type", []string{"C1", "C2"}[rng.Intn(2)])
			_ = b.AddTriple(fmt.Sprintf("n%d", i), "type", "C0")
		}
	}
	return b.Freeze()
}
