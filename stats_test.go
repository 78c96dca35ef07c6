package omega

import (
	"context"
	"fmt"
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

// TestDelayCounters pins the enumeration delay of the L1 study queries in
// RELAX and APPROX top-100, counted in tuple operations (adds and pops):
// Stats.PrepOps before the first row, Stats.MaxDelayOps the most between two
// consecutive rows. Both must also agree with TuplesAdded+TuplesPopped read
// off Stats after every Next, the counters they are a view of.
func TestDelayCounters(t *testing.T) {
	want := map[string][2]int{ // {PrepOps, MaxDelayOps}
		"Q3/RELAX": {17, 223}, "Q3/APPROX": {23, 170},
		"Q8/RELAX": {0, 0}, "Q8/APPROX": {10110, 1}, // RELAX Q8 has no answer
		"Q9/RELAX": {33, 19}, "Q9/APPROX": {78, 577},
		"Q10/RELAX": {13, 211}, "Q10/APPROX": {13, 237},
		"Q11/RELAX": {21, 220}, "Q11/APPROX": {44, 254},
		"Q12/RELAX": {487, 25}, "Q12/APPROX": {1060, 193},
	}
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	for _, q := range l4all.StudyQueries() {
		pq, err := eng.PrepareText(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Relax, Approx} {
			id := fmt.Sprintf("%s/%v", q.ID, mode)
			rows, err := pq.Exec(context.Background(), ExecOptions{Mode: ModeOverride(mode), Limit: 100})
			if err != nil {
				t.Fatal(err)
			}
			var prep, maxDelay, last, n int
			for ; ; n++ {
				_, ok, err := rows.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				s := rows.Stats()
				ops := s.TuplesAdded + s.TuplesPopped
				if n == 0 {
					prep = ops
				} else {
					maxDelay = max(maxDelay, ops-last)
				}
				last = ops
			}
			s := rows.Stats()
			if got := [2]int{s.PrepOps, s.MaxDelayOps}; got != [2]int{prep, maxDelay} || got != want[id] {
				t.Errorf("%s: {PrepOps, MaxDelayOps} = %v over %d rows; read off the counters %v, pinned %v", id, got, n, [2]int{prep, maxDelay}, want[id])
			}
		}
	}
}
