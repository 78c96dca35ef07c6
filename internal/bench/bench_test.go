package bench

import (
	"bytes"
	"strings"
	"testing"

	"omega/internal/automaton"
	"omega/internal/core"
	"omega/internal/l4all"
	"omega/internal/yago"
)

func tinyYago() yago.Config {
	c := yago.DefaultConfig().Scaled(0.05)
	c.Countries = 15
	c.Prizes = 8
	c.Commodities = 8
	return c
}

func tinyConfig() Config {
	return Config{
		Scales:   []l4all.Scale{l4all.L1},
		Proto:    Protocol{Runs: 2, BatchSize: 10, MaxAnswers: 50},
		Datasets: NewDatasets(tinyYago()),
	}
}

func TestRunExactProtocol(t *testing.T) {
	ds := NewDatasets(tinyYago())
	g, ont := ds.L4All(l4all.L1)
	m, err := Run(g, ont, "L1", "Q10", "(?X) <- (Librarians, type-, ?X)", automaton.Exact, core.Options{}, Protocol{Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Answers < 1 {
		t.Fatalf("no exact answers: %+v", m)
	}
	if m.Total <= 0 || m.Init <= 0 {
		t.Fatalf("timings not recorded: %+v", m)
	}
	if len(m.Batches) != 0 {
		t.Fatalf("exact mode recorded batches: %+v", m.Batches)
	}
	if m.Failed {
		t.Fatal("exact run failed unexpectedly")
	}
}

func TestRunFlexibleBatches(t *testing.T) {
	ds := NewDatasets(tinyYago())
	g, ont := ds.L4All(l4all.L1)
	m, err := Run(g, ont, "L1", "Q10", "(?X) <- (Librarians, type-, ?X)", automaton.Relax,
		core.Options{}, Protocol{Runs: 2, BatchSize: 10, MaxAnswers: 40})
	if err != nil {
		t.Fatal(err)
	}
	if m.Answers == 0 {
		t.Fatal("no RELAX answers")
	}
	if m.Answers > 40 {
		t.Fatalf("answer budget exceeded: %d", m.Answers)
	}
	if len(m.Batches) == 0 {
		t.Fatal("no batch timings recorded")
	}
	if m.Answers >= 10 && len(m.Batches) < m.Answers/10 {
		t.Fatalf("batches = %d for %d answers", len(m.Batches), m.Answers)
	}
}

func TestRunRecordsDistanceBreakdown(t *testing.T) {
	ds := NewDatasets(tinyYago())
	g, ont := ds.L4All(l4all.L1)
	m, err := Run(g, ont, "L1", "Q12",
		"(?X) <- (BTEC Introductory Diploma, level-.qualif-.prereq, ?X)",
		automaton.Relax, core.Options{}, Protocol{Runs: 2, MaxAnswers: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ByDist) == 0 {
		t.Fatal("no distance breakdown for a RELAX query with non-exact answers")
	}
	if m.DistBreakdown() == "" {
		t.Fatal("DistBreakdown rendered empty")
	}
	if !strings.Contains(m.DistBreakdown(), "1 (") {
		t.Fatalf("breakdown %q missing distance 1", m.DistBreakdown())
	}
}

func TestRunBudgetFailure(t *testing.T) {
	ds := NewDatasets(tinyYago())
	g, ont := ds.YAGO()
	opts := core.Options{MaxTuples: 500}
	m, err := Run(g, ont, "YAGO", "Q5", "(?X, ?Y) <- (?X, isConnectedTo.wasBornIn, ?Y)",
		automaton.Approx, opts, Protocol{Runs: 2, MaxAnswers: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Failed {
		t.Fatalf("budget of 500 tuples not hit: %+v", m)
	}
}

func TestFig2Table(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Episode", "Subject", "Occupation", "Industry Sector", "Depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Table(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "143") || !strings.Contains(out, "Nodes") {
		t.Errorf("Fig3 output unexpected:\n%s", out)
	}
}

func TestFig5Table(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Q3", "Q8", "Q12", "L1: Exact", "L1: APPROX", "L1: RELAX"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Table(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "L1") {
		t.Errorf("Fig6 output unexpected:\n%s", buf.String())
	}
}

func TestFig10And11Tables(t *testing.T) {
	cfg := tinyConfig()
	cfg.YagoBudget = 300000
	var buf bytes.Buffer
	if err := Fig10(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Q2", "Q9", "Exact", "APPROX", "RELAX"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig10 output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := Fig11(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ms") {
		t.Errorf("Fig11 output unexpected:\n%s", buf.String())
	}
}

func TestOptTables(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	if err := Opt1(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "distance-aware") || !strings.Contains(out, "Q9") {
		t.Errorf("Opt1 output unexpected:\n%s", out)
	}
	buf.Reset()
	if err := Opt2(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disjunction") {
		t.Errorf("Opt2 output unexpected:\n%s", buf.String())
	}
}

func TestDatasetsCache(t *testing.T) {
	ds := NewDatasets(tinyYago())
	g1, _ := ds.L4All(l4all.L1)
	g2, _ := ds.L4All(l4all.L1)
	if g1 != g2 {
		t.Fatal("L4All dataset not cached")
	}
	y1, _ := ds.YAGO()
	y2, _ := ds.YAGO()
	if y1 != y2 {
		t.Fatal("YAGO dataset not cached")
	}
}
