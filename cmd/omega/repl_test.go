package main

import (
	"strings"
	"testing"

	"omega"
)

// console runs the console over the given input lines and returns what it
// printed.
func console(t *testing.T, eng *omega.Engine, eo omega.ExecOptions, lines ...string) string {
	t.Helper()
	var out strings.Builder
	repl(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out, eng, eo, 10)
	return out.String()
}

// TestConsoleHonoursExecKnobs: the console runs queries and explain under the
// execution knobs of the command line, not under defaults.
func TestConsoleHonoursExecKnobs(t *testing.T) {
	b := omega.NewGraphBuilder()
	for _, tr := range [][3]string{{"a", "p", "b"}, {"a", "q", "c"}} {
		if err := b.AddTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	eng := omega.NewEngine(b.Freeze(), nil)
	approx := omega.ExecOptions{Mode: omega.ModeOverride(omega.Approx), Limit: 1}
	out := console(t, eng, approx, "explain (?X) <- (a, p, ?X)", "(?X) <- (a, p, ?X)", "quit")
	if !strings.Contains(out, "automaton (APPROX)") {
		t.Errorf("explain ignored -mode approx:\n%s", out)
	}
	// Limit 1 would stop at b; paging replaces -limit, so c follows.
	if !strings.Contains(out, "[?X=b] dist=0") || !strings.Contains(out, "[?X=c] dist=1") {
		t.Errorf("query ignored -mode approx or kept -limit:\n%s", out)
	}

	g, ont, err := omega.LoadDataset("l4all:L1", "", "")
	if err != nil {
		t.Fatal(err)
	}
	// The gauge samples every 512 tuple operations: the first batch may come
	// out before the first sample, so page on until one is taken.
	out = console(t, omega.NewEngine(g, ont), omega.ExecOptions{HardMemBytes: 1},
		"(?X) <- APPROX (Alumni_0_Episode_1, prereq*.next+.prereq, ?X)", "more 1000", "quit")
	if !strings.Contains(out, omega.ErrMemBudget.Error()) {
		t.Errorf("query ignored -hard-mem 1:\n%s", out)
	}
}
