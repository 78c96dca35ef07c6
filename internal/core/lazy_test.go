package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
)

// starGraph returns a graph whose hub has spokes p-edges to as many leaves,
// plus one q-edge between two leaves so q is a label of the graph.
func starGraph(t *testing.T, spokes int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	hub := b.AddNode("hub")
	for i := 0; i < spokes; i++ {
		if err := b.AddEdge(hub, "p", b.AddNode(fmt.Sprintf("leaf%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddTriple("leaf0", "q", "leaf1"); err != nil {
		t.Fatal(err)
	}
	return b.Freeze()
}

// TestLazySuccHub: APPROX (hub, q, ?X) top-10 on a star whose hub has 50 000
// p-edges. Every answer is one edit away, a substituted or inserted edge out
// of the hub. Pushing, or parking beyond ψ, one tuple per spoke and costed
// transition of the hub would add at least 50 000; with one continuation per
// costed transition the run adds and parks only what the ten answers pop.
// Counters only, no timing.
func TestLazySuccHub(t *testing.T) {
	const spokes = 50_000
	g := starGraph(t, spokes)
	if d := g.Degree(mustNode(t, g, "hub"), mustLabel(t, g, "p"), graph.Out); d != spokes {
		t.Fatalf("hub degree %d, want %d", d, spokes)
	}
	c := conj("hub", "q", "?X", automaton.Approx)
	for _, opts := range []Options{{}, {DistanceAware: true}} {
		it, err := OpenConjunct(g, nil, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		as := drain(t, it, 10)
		st := it.Stats()
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("DistanceAware=%v: added %d, popped %d, deferred %d", opts.DistanceAware, st.TuplesAdded, st.TuplesPopped, st.Deferred)
		if len(as) != 10 {
			t.Fatalf("DistanceAware=%v: %d answers, want 10", opts.DistanceAware, len(as))
		}
		for _, a := range as {
			if a.Dist != 1 {
				t.Fatalf("DistanceAware=%v: answer %+v, want every top-10 answer at distance 1", opts.DistanceAware, a)
			}
		}
		if st.TuplesAdded >= 1000 || st.Deferred >= 1000 {
			t.Fatalf("DistanceAware=%v: added %d, deferred %d tuples for 10 answers over a %d-edge hub, want both < 1000",
				opts.DistanceAware, st.TuplesAdded, st.Deferred, spokes)
		}
		if st.TuplesPopped > st.TuplesAdded {
			t.Fatalf("DistanceAware=%v: popped %d > added %d", opts.DistanceAware, st.TuplesPopped, st.TuplesAdded)
		}
		if opts.DistanceAware && st.Deferred == 0 {
			t.Fatal("DistanceAware: nothing parked, so the continuation's park-and-resume path went untested")
		}
	}
}

func mustLabel(t testing.TB, g *graph.Graph, name string) graph.LabelID {
	t.Helper()
	l, ok := g.Label(name)
	if !ok {
		t.Fatalf("label %q missing", name)
	}
	return l
}

// TestLimitPrefixOfExhaustive checks the prefix law on random graphs under
// APPROX and RELAX: the rows of a Limit k execution are the first k rows of
// the exhaustive execution, ties and all, for every k, under the plain
// evaluator and both ψ-phase strategies.
func TestLimitPrefixOfExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(2712))
	ont := testOnt()
	res := []string{"p", "p.q", "p|q", "p.q-", "p*", "(p|q).r", "type-", "q.type-"}
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, ont)
		mode := []automaton.Mode{automaton.Approx, automaton.Relax}[rng.Intn(2)]
		c := conj([]string{"?X", "n0", "C1"}[rng.Intn(3)], res[rng.Intn(len(res))], []string{"?Y", "n2"}[rng.Intn(2)], mode)
		if !c.Subject.IsVar && !c.Object.IsVar {
			continue // no variable to project
		}
		q := &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}
		opts := Options{
			DistanceAware: rng.Intn(2) == 0,
			Disjunction:   rng.Intn(2) == 0,
			BatchSize:     randBatchSize(rng, 1, 7, 100),
		}
		p, err := PrepareQuery(g, ont, q, opts)
		if err != nil {
			t.Fatalf("trial %d: PrepareQuery: %v", trial, err)
		}
		exec := func(limit int) []QueryAnswer {
			ex, err := p.Exec(context.Background(), ExecOptions{Limit: limit})
			if err != nil {
				t.Fatalf("trial %d: Exec: %v", trial, err)
			}
			return drainExec(t, ex, 0)
		}
		all := exec(0)
		for k := 1; k <= len(all); k++ {
			got := exec(k)
			if len(got) != k {
				t.Fatalf("trial %d (%s %+v): Limit %d gave %d rows of %d", trial, c, opts, k, len(got), len(all))
			}
			for i := range got {
				if !sameQueryAnswer(got[i], all[i]) {
					t.Fatalf("trial %d (%s %+v): Limit %d row %d is %+v, exhaustive row %d is %+v",
						trial, c, opts, k, i, got[i], i, all[i])
				}
			}
		}
	}
}

// TestTooManyTransitions: an APPROX automaton whose transitions × 2 × edge
// labels exceed the 2^24 continuation slots fails to compile with the typed
// error; the EXACT automaton of the same expression makes no continuations
// and compiles. The graph has 40 000 labels, so any automaton with costed
// transitions and more than 209 transitions is over the bound.
func TestTooManyTransitions(t *testing.T) {
	const labels = 40_000
	b := graph.NewBuilder()
	x, y := b.AddNode("x"), b.AddNode("y")
	for i := 0; i < labels; i++ {
		if err := b.AddEdge(x, fmt.Sprintf("l%d", i), y); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	steps := make([]string, 24)
	for i := range steps {
		steps[i] = fmt.Sprintf("l%d", i)
	}
	re := strings.Join(steps, ".")

	_, err := OpenConjunct(g, nil, conj("x", re, "?Y", automaton.Approx), Options{})
	if !errors.Is(err, ErrTooManyTransitions) {
		t.Fatalf("APPROX over %d labels: err = %v, want ErrTooManyTransitions", labels, err)
	}
	it, err := OpenConjunct(g, nil, conj("x", re, "?Y", automaton.Exact), Options{})
	if err != nil {
		t.Fatalf("EXACT: %v", err)
	}
	it.Close()

	// The failure is the documented bound, not a tighter one.
	aut, err := automaton.Build(conj("x", re, "?Y", automaton.Approx).Expr, g, nil,
		automaton.BuildOptions{Mode: automaton.Approx, Edit: automaton.DefaultEditCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(aut.Trans)) * int64(contStride(g)); n <= 1<<24 {
		t.Fatalf("the APPROX automaton needs %d slots, not over 2^24: the test does not reach the bound", n)
	}
}
