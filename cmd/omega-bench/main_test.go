package main

import (
	"bytes"
	"strings"
	"testing"

	"omega"
	"omega/internal/l4all"
	"omega/internal/yago"
)

func tinyBench() *bench {
	c := yago.DefaultConfig().Scaled(0.05)
	c.Countries = 15
	c.Prizes = 8
	c.Commodities = 8
	return &bench{
		scales:     []l4all.Scale{l4all.L1},
		proto:      protocol{runs: 2, maxAnswers: 50},
		eo:         omega.ExecOptions{Backend: omega.BackendRanked},
		yagoBudget: 300000,
		yagoCfg:    c,
		l4:         map[l4all.Scale]*omega.Engine{},
	}
}

func TestRunExactProtocol(t *testing.T) {
	b := tinyBench()
	m, err := run(b.l4all(l4all.L1), "(?X) <- (Librarians, type-, ?X)", omega.Exact, omega.Options{}, b.eo, protocol{runs: 3, maxAnswers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.answers <= 1 {
		t.Fatalf("exact run stopped at the APPROX/RELAX answer budget: %+v", m)
	}
	if m.total <= 0 {
		t.Fatalf("timing not recorded: %+v", m)
	}
	if m.failed {
		t.Fatal("exact run failed unexpectedly")
	}
}

func TestRunFlexibleBudget(t *testing.T) {
	b := tinyBench()
	m, err := run(b.l4all(l4all.L1), "(?X) <- (Librarians, type-, ?X)", omega.Relax, omega.Options{}, b.eo, protocol{runs: 2, maxAnswers: 40})
	if err != nil {
		t.Fatal(err)
	}
	if m.answers != 40 {
		t.Fatalf("RELAX run returned %d answers, want the budget of 40", m.answers)
	}
}

func TestRunRecordsDistanceBreakdown(t *testing.T) {
	b := tinyBench()
	m, err := run(b.l4all(l4all.L1), "(?X) <- (BTEC Introductory Diploma, level-.qualif-.prereq, ?X)",
		omega.Relax, omega.Options{}, b.eo, protocol{runs: 2, maxAnswers: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.byDist) == 0 {
		t.Fatal("no distance breakdown for a RELAX query with non-exact answers")
	}
	if !strings.Contains(m.distBreakdown(), "1 (") {
		t.Fatalf("breakdown %q missing distance 1", m.distBreakdown())
	}
}

func TestRunBudgetFailure(t *testing.T) {
	b := tinyBench()
	eo := b.eo
	eo.MaxTuples = 500
	m, err := run(b.yago(), "(?X, ?Y) <- (?X, isConnectedTo.wasBornIn, ?Y)", omega.Approx, omega.Options{}, eo, protocol{runs: 2, maxAnswers: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !m.failed || m.distBreakdown() != "(budget)" {
		t.Fatalf("budget of 500 tuples not hit: %+v", m)
	}
}

// TestExperiments runs every experiment at L1 on a tiny YAGO graph and checks
// each table's shape.
func TestExperiments(t *testing.T) {
	want := map[string][]string{
		"fig2":  {"Episode", "Subject", "Occupation", "Industry Sector", "Depth"},
		"fig3":  {"143", "Nodes"},
		"fig5":  {"Q3", "Q8", "Q12", "L1: Exact", "L1: APPROX", "L1: RELAX"},
		"fig6":  {"ms", "L1"},
		"fig7":  {"ms", "L1"},
		"fig8":  {"ms", "L1"},
		"fig10": {"Q2", "Q9", "Exact", "APPROX", "RELAX"},
		"fig11": {"ms", "Exact", "APPROX", "RELAX"},
		"opt1":  {"plain ms", "distance-aware incremental ms", "reinjected", "popped incr", "Q9", "exhaust ψ≤3φ"},
		"opt2":  {"disjunction"},
	}
	b := tinyBench()
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.run(b, &buf); err != nil {
				t.Fatal(err)
			}
			for _, s := range want[e.name] {
				if !strings.Contains(buf.String(), s) {
					t.Errorf("%s output missing %q:\n%s", e.name, s, buf.String())
				}
			}
		})
	}
}
