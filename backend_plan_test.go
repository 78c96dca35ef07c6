package omega

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"omega/internal/l4all"
)

// TestPlannerBackendSelection pins the cost-based backend choice and its
// Explain evidence: exhaustive exact variable-subject scans go bulk, ranked
// modes and small seed populations stay ranked, and pinning a backend is
// reported as such. The exact reason strings are part of the operator-facing
// surface (they appear in Explain output and bug reports), so the substrings
// asserted here are deliberate.
func TestPlannerBackendSelection(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	explain := func(eo ExecOptions, text string) string {
		t.Helper()
		pq, err := eng.PrepareText(text)
		if err != nil {
			t.Fatalf("PrepareText(%q): %v", text, err)
		}
		out, err := pq.Explain(eo)
		if err != nil {
			t.Fatalf("Explain(%q): %v", text, err)
		}
		return out
	}
	cases := []struct {
		name string
		eo   ExecOptions
		text string
		want string
	}{
		{"exhaustive exact variable subject goes bulk",
			ExecOptions{}, "(?X, ?Y) <- (?X, job.type, ?Y)",
			"backend: bulk set-semantics (auto: exhaustive exact scan:"},
		{"closure query goes bulk",
			ExecOptions{}, "(?X, ?Y) <- (?X, next+, ?Y)",
			"backend: bulk set-semantics (auto: exhaustive exact scan:"},
		{"approx mode stays ranked",
			ExecOptions{}, "(?X) <- APPROX (Librarians, type-.job-.next, ?X)",
			"backend: ranked GetNext (auto: APPROX mode ranks answers by distance)"},
		{"constant subject stays ranked",
			ExecOptions{}, "(?X) <- (Librarians, type-, ?X)",
			"backend: ranked GetNext (auto: seed population 1 below word-parallel payoff"},
		{"pinned ranked reported as forced",
			ExecOptions{Backend: BackendRanked}, "(?X, ?Y) <- (?X, job.type, ?Y)",
			"backend: ranked GetNext (pinned: forced)"},
		{"pinned bulk reported as forced",
			ExecOptions{Backend: BackendBulk}, "(?X, ?Y) <- (?X, job.type, ?Y)",
			"backend: bulk set-semantics (pinned: forced)"},
	}
	for _, tc := range cases {
		out := explain(tc.eo, tc.text)
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: Explain(%q) missing %q; got:\n%s", tc.name, tc.text, tc.want, out)
		}
	}
	// Auto-bulk Explain also shows the cost model evidence line.
	out := explain(ExecOptions{}, "(?X, ?Y) <- (?X, job.type, ?Y)")
	if !strings.Contains(out, "backend cost model: S=") {
		t.Errorf("auto-bulk Explain missing cost model line; got:\n%s", out)
	}
}

// TestExecBackendMatchesPlanner confirms the Explain decision is what
// executions actually do: for every ExecOptions row, the backend and the mode
// PreparedQuery.Explain names are the ones the execution runs with
// (Stats.Backend), across auto selection, a forced backend, Limit and
// MaxDist demotion, and a Mode override.
func TestExecBackendMatchesPlanner(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, job.type, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	explainedBackend := regexp.MustCompile(`backend: (bulk|ranked) `)
	explainedMode := regexp.MustCompile(`automaton \((\w+)\)`)
	for _, tc := range []struct {
		name string
		eo   ExecOptions
		want string
	}{
		{"auto exhaustive exact", ExecOptions{}, "bulk"},
		{"forced ranked", ExecOptions{Backend: BackendRanked}, "ranked"},
		// A limited execution streams a ranked prefix even under auto.
		{"auto with Limit", ExecOptions{Limit: 5}, "ranked"},
		// Forcing bulk survives a Limit (the caller owns that trade-off).
		{"forced bulk with Limit", ExecOptions{Backend: BackendBulk, Limit: 5}, "bulk"},
		{"approx override", ExecOptions{Mode: ModeOverride(Approx)}, "ranked"},
		{"auto with MaxDist", ExecOptions{MaxDist: 1}, "ranked"},
	} {
		plan, err := pq.Explain(tc.eo)
		if err != nil {
			t.Fatalf("%s: Explain: %v", tc.name, err)
		}
		rows, err := pq.Exec(context.Background(), tc.eo)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(10); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		got := rows.Stats().Backend
		if got != tc.want {
			t.Errorf("%s: Stats.Backend = %q, want %q", tc.name, got, tc.want)
		}
		if m := explainedBackend.FindStringSubmatch(plan); m == nil || m[1] != got {
			t.Errorf("%s: Explain names backend %q, the run used %q:\n%s", tc.name, m, got, plan)
		}
		mode := Exact
		if tc.eo.Mode != nil {
			mode = *tc.eo.Mode
		}
		if m := explainedMode.FindStringSubmatch(plan); m == nil || m[1] != mode.String() {
			t.Errorf("%s: Explain names mode %q, the run used %v:\n%s", tc.name, m, mode, plan)
		}
	}

	// The ψ-phase driver runs only on the ranked backend: under Disjunction an
	// exhaustive L4All Q7 goes bulk and lists no alternation strategy, a
	// limited one streams through the driver and lists it.
	var q7 string
	for _, q := range L4AllQueries() {
		if q.ID == "Q7" {
			q7 = q.Text
		}
	}
	pq, err = eng.WithOptions(Options{Disjunction: true}).PrepareText(q7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eo      ExecOptions
		backend string
		driver  bool
	}{
		{ExecOptions{}, "bulk", false},
		{ExecOptions{Limit: 5}, "ranked", true},
	} {
		plan, err := pq.Explain(tc.eo)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "backend: "+tc.backend) || strings.Contains(plan, "alternation-by-disjunction") != tc.driver {
			t.Errorf("Q7 %+v: want backend %s and alternation-by-disjunction listed = %v; got:\n%s", tc.eo, tc.backend, tc.driver, plan)
		}
		rows, err := pq.Exec(context.Background(), tc.eo)
		if err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if got := rows.Stats().Backend; got != tc.backend {
			t.Errorf("Q7 %+v: Stats.Backend = %q, want %q", tc.eo, got, tc.backend)
		}
	}
}
