package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	for _, v := range []struct {
		opts    Options
		restart bool
	}{
		{opts: Options{Edit: edit}},
		{opts: Options{Edit: edit, Disjunction: true}},
		{opts: Options{Edit: edit, Disjunction: true, DistanceAware: true}},
		{opts: Options{Edit: edit, Disjunction: true}, restart: true},
		{opts: Options{Edit: edit, DistanceAware: true}},
	} {
		open := OpenConjunct
		if v.restart {
			open = openRestart
		}
		it, err := open(g, nil, c, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, it, 100); !slices.Equal(got, want) {
			t.Errorf("Disjunction=%v DistanceAware=%v restart=%v: emitted %v, want %v",
				v.opts.Disjunction, v.opts.DistanceAware, v.restart, got, want)
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
		for _, v := range []struct{ distanceAware, restart bool }{
			{},
			{distanceAware: true},
			{restart: true},
		} {
			opts := base
			opts.Disjunction, opts.DistanceAware = true, v.distanceAware
			open := OpenConjunct
			if v.restart {
				open = openRestart
			}
			it, err := open(g, ont, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, it, 1<<20)
			runs++
			name := fmt.Sprintf("trial %d %s edit=%+v relax=%+v DistanceAware=%v restart=%v",
				trial, c, edit, relax, v.distanceAware, v.restart)
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

// TestNegativeCostsRejected: a negative operation cost is refused by
// PrepareQuery and OpenConjunct with an error naming the field. Accepted, it
// gave wrong answers: on a -p-> b -q-> c -p-> d, APPROX (a, p.p, ?X) under
// Delete −1 returned b at distance 1, though deleting the second p reaches b
// at −1, and under Insert −1 every distance was unbounded below.
func TestNegativeCostsRejected(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "a", "p", "b")
	mustAdd(t, b, "b", "q", "c")
	mustAdd(t, b, "c", "p", "d")
	g := b.Freeze()
	c := conj("a", "p.p", "?X", automaton.Approx)
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{c}}
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"Edit.Insert", Options{Edit: automaton.EditCosts{Insert: -1, Delete: 1, Substitute: 1}}},
		{"Edit.Delete", Options{Edit: automaton.EditCosts{Insert: 1, Delete: -1, Substitute: 1}}},
		{"Edit.Substitute", Options{Edit: automaton.EditCosts{Insert: 1, Delete: 1, Substitute: -2}}},
		{"Relax.Beta", Options{Relax: automaton.RelaxCosts{Beta: -1, Gamma: 1}}},
		{"Relax.Gamma", Options{Relax: automaton.RelaxCosts{Beta: 1, Gamma: -1}}},
	} {
		if _, err := PrepareQuery(g, nil, q, tc.opts); err == nil || !strings.Contains(err.Error(), "Options."+tc.field) {
			t.Errorf("PrepareQuery with a negative %s: err = %v, want one naming Options.%s", tc.field, err, tc.field)
		}
		if _, err := OpenConjunct(g, nil, c, tc.opts); err == nil || !strings.Contains(err.Error(), "Options."+tc.field) {
			t.Errorf("OpenConjunct with a negative %s: err = %v, want one naming Options.%s", tc.field, err, tc.field)
		}
	}
	// Zero costs stay accepted.
	if _, err := PrepareQuery(g, nil, q, Options{Edit: automaton.EditCosts{Insert: 0, Delete: 1, Substitute: 1}}); err != nil {
		t.Errorf("PrepareQuery with a zero insertion cost: %v", err)
	}
}

// TestOversizedCostsRejected: distances are int32 sums of costs, so a cost
// above maxCost is refused with an error naming the field, and costs that fit
// but could still sum past int32 over the graph's configurations fail
// compilation with ErrDistanceRange. Accepted, every edit cost at MaxInt32
// made APPROX (n0, b, ?Y) on n0 -a-> n1 -a-> n2 add a wrapped, negative
// distance, which panicked in D_R.
func TestOversizedCostsRejected(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "n0", "a", "n1")
	mustAdd(t, b, "n1", "a", "n2")
	g := b.Freeze()
	c := conj("n0", "b", "?Y", automaton.Approx)
	q := &Query{Head: []string{"Y"}, Conjuncts: []Conjunct{c}}
	huge := automaton.EditCosts{Insert: math.MaxInt32, Delete: math.MaxInt32, Substitute: math.MaxInt32}
	if _, err := PrepareQuery(g, nil, q, Options{Edit: huge}); err == nil || !strings.Contains(err.Error(), "Options.Edit.Insert") {
		t.Errorf("PrepareQuery with edit costs at MaxInt32: err = %v, want one naming Options.Edit.Insert", err)
	}
	if it, err := OpenConjunct(g, nil, c, Options{Edit: huge}); err == nil {
		drain(t, it, 100)
		t.Error("OpenConjunct accepted edit costs at MaxInt32")
	}
	for _, field := range []string{"Relax.Beta", "Relax.Gamma"} {
		relax := automaton.RelaxCosts{Beta: 1, Gamma: 1}
		if field == "Relax.Beta" {
			relax.Beta = maxCost + 1
		} else {
			relax.Gamma = maxCost + 1
		}
		if _, err := PrepareQuery(g, nil, q, Options{Relax: relax}); err == nil || !strings.Contains(err.Error(), "Options."+field) {
			t.Errorf("PrepareQuery with %s above maxCost: err = %v, want one naming Options.%s", field, err, field)
		}
	}
	top := automaton.EditCosts{Insert: maxCost, Delete: maxCost, Substitute: maxCost}
	if _, err := PrepareQuery(g, nil, q, Options{Edit: top}); err != nil {
		t.Errorf("PrepareQuery with every edit cost at maxCost on 3 nodes: %v", err)
	}
	// On a path of 20 000 nodes, (20 000 × states + 1) · 2^16 passes int32.
	long := graph.NewBuilder()
	for i := range 20000 {
		mustAdd(t, long, fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1))
	}
	if _, err := PrepareQuery(long.Freeze(), nil, q, Options{Edit: top}); !errors.Is(err, ErrDistanceRange) {
		t.Errorf("PrepareQuery with every edit cost at maxCost on 20 001 nodes: err = %v, want ErrDistanceRange", err)
	}
}

// TestZeroCostKeepsPsiCap: a zero operation cost leaves φ, and with it the
// default ψ cap 16·φ, at the smallest positive cost. On the path
// n0 -a-> … -a-> n6, APPROX (n0, b.b.b.b.b, ?Y) under edit costs 0/4/4
// (insert, delete, substitute) answers every node at distance 20: within
// the cap of 64, where a φ of 1 capped ψ at 16 and the distance-aware run
// answered none.
func TestZeroCostKeepsPsiCap(t *testing.T) {
	b := graph.NewBuilder()
	for i := range 6 {
		if err := b.AddTriple(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	c := conj("n0", "b.b.b.b.b", "?Y", automaton.Approx)
	for _, edit := range []automaton.EditCosts{{Insert: 0, Delete: 4, Substitute: 4}, {Insert: 4, Delete: 4, Substitute: 4}} {
		var got [2]map[uint64]int32
		for i, aware := range []bool{false, true} {
			it, err := OpenConjunct(g, nil, c, Options{Edit: edit, DistanceAware: aware})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = answersAsMap(t, drain(t, it, 100))
			it.Close()
		}
		if len(got[0]) != 7 || !maps.Equal(got[0], got[1]) {
			t.Errorf("edit costs %+v: %d answers plain, %d distance-aware, want the same 7", edit, len(got[0]), len(got[1]))
		}
	}
}
