package core

import (
	"strings"
	"testing"

	"omega/internal/automaton"
)

// explain prepares q over the tiny graph and renders the plan of an execution
// with default knobs.
func explain(t *testing.T, q *Query, opts Options) (string, error) {
	g, ont := tinyGraph(t)
	p, err := PrepareQuery(g, ont, q, opts)
	if err != nil {
		return "", err
	}
	return p.Explain(ExecOptions{})
}

func TestExplainSingleConjunct(t *testing.T) {
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{conj("a", "p.p", "?X", automaton.Approx)}}
	out, err := explain(t, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"case 1", "APPROX", "states", "seed"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainCase2(t *testing.T) {
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{conj("?X", "p", "c", automaton.Exact)}}
	out, err := explain(t, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "case 2 rewrite") {
		t.Errorf("explain missing case-2 note:\n%s", out)
	}
}

func TestExplainCase3AndStrategies(t *testing.T) {
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p|q", "?Y", automaton.Approx)}}
	out, err := explain(t, q, Options{
		Disjunction: true, DistanceAware: true, RareSide: true, MaxTuples: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"case 3", "sub-automaton 2", "alternation-by-disjunction",
		"distance-aware", "rare-side", "tuple budget 5000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainJoinAndPlan(t *testing.T) {
	q := &Query{
		Head: []string{"X"},
		Conjuncts: []Conjunct{
			conj("?X", "p", "?Y", automaton.Exact),
			conj("a", "q", "?X", automaton.Exact),
		},
	}
	out, err := explain(t, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"join: round-based ranked join over 2 conjuncts",
		"conjunct 1: (?X, p, ?Y)", "conjunct 2: (a, q, ?X)", // body order
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainInvalidQuery(t *testing.T) {
	q := &Query{Head: []string{"Z"}, Conjuncts: []Conjunct{conj("?X", "p", "?Y", automaton.Exact)}}
	if _, err := explain(t, q, Options{}); err == nil {
		t.Fatal("invalid query explained without error")
	}
}
