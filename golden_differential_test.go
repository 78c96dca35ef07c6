package omega

import (
	"context"
	"testing"

	"omega/internal/l4all"
)

// TestL4AllCorpusDeterministic pins run-to-run determinism of ranked
// emission: two independent evaluations of the same query must produce
// identical sequences (the automaton pipeline orders transitions totally, so
// equal-distance ties break the same way every run).
func TestL4AllCorpusDeterministic(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	for _, q := range l4all.Queries() {
		a := collectAnswers(t, g, ont, q.Text, Approx, Options{}, ExecOptions{}, 200)
		b := collectAnswers(t, g, ont, q.Text, Approx, Options{}, ExecOptions{}, 200)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d answers across identical runs", q.ID, len(a), len(b))
		}
		for i := range a {
			if !sameRow(a[i], b[i]) {
				t.Fatalf("%s answer %d differs across identical runs: %+v vs %+v", q.ID, i, a[i], b[i])
			}
		}
	}
}

func sameRow(a, b QueryAnswer) bool {
	if a.Dist != b.Dist || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// collectAnswers prepares text under opts, executes it in the given mode
// under eo and returns up to limit answers (limit ≤ 0 = all). The limit is
// the caller's, not eo's: it stops pulling without changing the plan.
func collectAnswers(t *testing.T, g *Graph, ont *Ontology, text string, mode Mode, opts Options, eo ExecOptions, limit int) []QueryAnswer {
	t.Helper()
	pq, err := NewEngine(g, ont).WithOptions(opts).PrepareText(text)
	if err != nil {
		t.Fatalf("PrepareText(%q): %v", text, err)
	}
	eo.Mode = ModeOverride(mode)
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		t.Fatalf("Exec(%q): %v", text, err)
	}
	defer rows.Close()
	var out []QueryAnswer
	last := int32(-1)
	for limit <= 0 || len(out) < limit {
		r, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("Next(%q): %v", text, err)
		}
		if !ok {
			break
		}
		a := QueryAnswer{Head: r.Vars, Nodes: r.Nodes, Dist: int32(r.Dist)}
		if a.Dist < last {
			t.Fatalf("%q: ranked order violated: distance %d after %d", text, a.Dist, last)
		}
		last = a.Dist
		out = append(out, a)
	}
	return out
}
