package omega

import (
	"context"
	"testing"

	"omega/internal/l4all"
)

// TestRowsStatsReadableAfterExhaustionAndClose pins the serving observability
// contract: Rows.Stats reports the execution's counters after the stream is
// exhausted and keeps reporting them after Close, so a server can log
// per-request pops/deferred/reinjected once the response is finished.
func TestRowsStatsReadableAfterExhaustionAndClose(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	rows, err := eng.QueryTextMode("(?X) <- (Librarians, type-.job-.next, ?X)", Approx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(50); err != nil {
		t.Fatal(err)
	}
	after := rows.Stats()
	if after.TuplesPopped == 0 || after.TuplesAdded == 0 {
		t.Fatalf("Stats after exhaustion lost the counters: %+v", after)
	}
	if after.Deferred == 0 || after.Reinjected == 0 {
		t.Fatalf("distance-aware run reports no deferred/reinjected work: %+v", after)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rows.Stats(); got != after {
		t.Fatalf("Stats changed across Close: %+v vs %+v", got, after)
	}
}

// TestRowsStatsMultiConjunct: multi-conjunct executions aggregate their
// conjunct evaluators' counters through the ranked join instead of reporting
// zeros.
func TestRowsStatsMultiConjunct(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	const text = "(?X, ?Y) <- (?X, job, ?Y), (?Y, type, Occupation)"
	t.Run("ranked-join", func(t *testing.T) {
		pq, err := NewEngine(g, ont).PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := pq.Exec(context.Background(), ExecOptions{Limit: 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(0); err != nil {
			t.Fatal(err)
		}
		s := rows.Stats()
		rows.Close()
		if s.TuplesPopped == 0 || s.TuplesAdded == 0 || s.NeighborCalls == 0 {
			t.Fatalf("multi-conjunct Stats empty: %+v", s)
		}
		if s.Phases == 0 {
			t.Fatalf("Phases not aggregated: %+v", s)
		}
	})
}
