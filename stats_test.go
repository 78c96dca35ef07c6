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
	// APPROX wildcard runs yield the successors that cannot answer at their
	// own distance from a lifted continuation one step higher, so APPROX Q8
	// no longer walks the 5 350 configurations it can prove answer-free at
	// distance 1 before its first row (PrepOps 5 356 before), and the lifted
	// pops land between rows: Q8's MaxDelayOps rose 1 → 5 and Q9's 88 → 114,
	// while Q3, Q10, Q11 and Q12 fell (166, 233, 238 and 82 before).
	want := map[string][2]int{ // {PrepOps, MaxDelayOps}
		"Q3/RELAX": {17, 223}, "Q3/APPROX": {19, 79},
		"Q8/RELAX": {0, 0}, "Q8/APPROX": {6, 5}, // RELAX Q8 has no answer
		"Q9/RELAX": {27, 16}, "Q9/APPROX": {41, 114},
		"Q10/RELAX": {13, 211}, "Q10/APPROX": {12, 224},
		"Q11/RELAX": {21, 220}, "Q11/APPROX": {31, 49},
		"Q12/RELAX": {487, 25}, "Q12/APPROX": {682, 14},
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
