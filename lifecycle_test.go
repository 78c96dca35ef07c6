package omega

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"omega/internal/l4all"
)

// Lifecycle tests for the prepared-query serving API: deterministic resource
// release (Close), context cancellation, sticky errors, and concurrent
// sharing of one PreparedQuery.

const spillQuery = "(?X) <- APPROX (Librarians, type-.job-.next, ?X)"

func spillDirEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	return len(entries)
}

// TestCloseReleasesSpillFiles abandons a spilling query mid-stream and
// requires that Close leaves zero files under the spill directory — the
// serving guarantee that per-request disk state dies with the request, not
// with the process. Both the plain spilling dictionary and the
// distance-aware deferred frontier (which spills separately) are exercised.
func TestCloseReleasesSpillFiles(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"spill-dict", Options{SpillThreshold: 8}},
		{"spill-dict-and-deferred", Options{SpillThreshold: 8, DistanceAware: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tc.opts
			opts.SpillDir = dir
			eng := NewEngine(g, ont).WithOptions(opts)
			pq, err := eng.PrepareText(spillQuery)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := pq.Exec(context.Background(), ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Pull a prefix, watching the spill dir: the tiny threshold must
			// force files onto disk while the query is live.
			sawSpill := false
			for i := 0; i < 30; i++ {
				if _, ok, err := rows.Next(); err != nil || !ok {
					t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
				}
				if spillDirEntries(t, dir) > 0 {
					sawSpill = true
				}
			}
			if !sawSpill {
				t.Fatal("threshold 8 never spilled — the test is not exercising disk state")
			}
			// Abandon mid-stream.
			if err := rows.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if n := spillDirEntries(t, dir); n != 0 {
				t.Fatalf("%d spill files left after Close", n)
			}
		})
	}
}

// TestRowsCloseContract: double-Close is safe, Next after Close reports
// ErrClosed, Close after exhaustion is a no-op.
func TestRowsCloseContract(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont)
	pq, err := eng.PrepareText("(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}

	rows, err := pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, ok, err := rows.Next(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = (%v, %v), want ErrClosed", ok, err)
	}
	if _, err := rows.Collect(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Collect after Close: %v, want ErrClosed", err)
	}

	// Exhaust, then Close: a no-op.
	rows, err = pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(0); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after exhaustion: %v", err)
	}
}

// TestRowsErrorSticky pins the Next error contract: a terminal error is
// re-returned by every subsequent call, so Collect callers can never
// conflate exhaustion with failure.
func TestRowsErrorSticky(t *testing.T) {
	g, ont := exampleGraph(t)
	eng := NewEngine(g, ont).WithOptions(Options{MaxTuples: 1})
	rows, err := eng.QueryTextMode("(?X, ?Y) <- (?X, isLocatedIn, ?Y)", Approx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rows.Collect(100)
	if !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("err = %v, want ErrTupleBudget", err)
	}
	for i := 0; i < 3; i++ {
		_, ok, err2 := rows.Next()
		if ok || !errors.Is(err2, ErrTupleBudget) {
			t.Fatalf("call %d after failure = (%v, %v), want sticky ErrTupleBudget", i, ok, err2)
		}
	}
	// Close after a terminal error is safe; the sticky error survives it.
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after error: %v", err)
	}
	if _, _, err := rows.Next(); !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("error not sticky across Close: %v", err)
	}
}

// TestExecCancellationPublic: a canceled context surfaces as ErrCanceled
// (matching context.Canceled) within one Next call; a deadline as
// ErrDeadline.
func TestExecCancellationPublic(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	pq, err := NewEngine(g, ont).PrepareText(spillQuery)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := pq.Exec(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	cancel()
	_, ok, err := rows.Next()
	if ok || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = (%v, %v), want ErrCanceled", ok, err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	rows, err = pq.Exec(dctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); ok || !errors.Is(err, ErrDeadline) {
		t.Fatalf("Next past deadline = (%v, %v), want ErrDeadline", ok, err)
	}
}

// TestCancelledSpillingQueryLeavesNoFiles is the full serving-failure path:
// a spilling query is canceled mid-stream via its context — the very next
// Next reports ErrCanceled — and after Close the spill directory is empty.
func TestCancelledSpillingQueryLeavesNoFiles(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	dir := t.TempDir()
	eng := NewEngine(g, ont).WithOptions(Options{SpillThreshold: 8, SpillDir: dir})
	pq, err := eng.PrepareText(spillQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := pq.Exec(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sawSpill := false
	for i := 0; i < 20; i++ {
		if _, ok, err := rows.Next(); err != nil || !ok {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
		if spillDirEntries(t, dir) > 0 {
			sawSpill = true
		}
	}
	if !sawSpill {
		t.Fatal("query never spilled; fixture too small")
	}
	cancel()
	if _, ok, err := rows.Next(); ok || !errors.Is(err, ErrCanceled) {
		t.Fatalf("Next after cancel = (%v, %v), want ErrCanceled within one iteration", ok, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := spillDirEntries(t, dir); n != 0 {
		t.Fatalf("%d spill files left after cancel + Close", n)
	}
}

// TestForEachPublic: the serving loop closes the Rows on every exit path and
// respects both its context and the callback's error.
func TestForEachPublic(t *testing.T) {
	g, ont := exampleGraph(t)
	pq, err := NewEngine(g, ont).PrepareText("(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)")
	if err != nil {
		t.Fatal(err)
	}

	rows, err := pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := rows.ForEach(context.Background(), func(Row) error { n++; return nil }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if n == 0 {
		t.Fatal("ForEach visited nothing")
	}
	if _, _, err := rows.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("rows not closed after ForEach: %v", err)
	}

	// Callback error propagates verbatim and closes the rows.
	rows, err = pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	if err := rows.ForEach(context.Background(), func(Row) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("ForEach = %v, want sentinel", err)
	}

	// A canceled loop context stops the iteration with ErrCanceled.
	rows, err = pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rows.ForEach(ctx, func(Row) error { return nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("ForEach on canceled ctx = %v, want ErrCanceled", err)
	}

	// A context canceled with cause ErrMemBudget — what the memory broker does
	// to its victim — ends a ForEach exactly as it ends a Next loop: the typed
	// budget error, and the pooled bundle discarded, not recycled. The context
	// is the loop's only, so it is ForEach's own check that has to get this
	// right.
	pool := NewEvalPool(1)
	rows, err = pq.Exec(context.Background(), ExecOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	vctx, kill := context.WithCancelCause(context.Background())
	kill(ErrMemBudget)
	if err := rows.ForEach(vctx, func(Row) error { return nil }); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("ForEach on a victim-killed ctx = %v, want ErrMemBudget", err)
	}
	if _, _, err := rows.Next(); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("victim kill not sticky: %v", err)
	}
	if ps := pool.Stats(); ps.Puts != 0 || ps.Poisoned != 1 {
		t.Fatalf("victim-killed ForEach: Puts=%d Poisoned=%d, want 0 and 1", ps.Puts, ps.Poisoned)
	}

	// An earlier terminal error stays sticky even through a ForEach whose
	// own context is already canceled.
	budget, err := NewEngine(g, ont).WithOptions(Options{MaxTuples: 1}).
		QueryTextMode("(?X, ?Y) <- (?X, isLocatedIn, ?Y)", Approx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := budget.Collect(100); !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("budget err = %v", err)
	}
	if err := budget.ForEach(ctx, func(Row) error { return nil }); !errors.Is(err, ErrTupleBudget) {
		t.Fatalf("ForEach replaced the sticky error: %v, want ErrTupleBudget", err)
	}
}

// TestPreparedSharedAcrossGoroutines shares one PreparedQuery between many
// goroutines — including concurrent first-use of a mode-override variant —
// and requires every execution to emit the identical ranked sequence. Run
// with -race, this is the concurrency contract of the serving API.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	pq, err := eng.PrepareText("(?X) <- (Librarians, type-.job-.next, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.QueryTextMode("(?X) <- (Librarians, type-.job-.next, ?X)", Approx)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := want.Collect(100)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				rows, err := pq.Exec(context.Background(), ExecOptions{
					Limit: 100,
					Mode:  ModeOverride(Approx),
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d: Exec: %w", w, err)
					return
				}
				got, err := rows.Collect(0)
				rows.Close()
				if err != nil {
					errs <- fmt.Errorf("worker %d: Collect: %w", w, err)
					return
				}
				if len(got) != len(wantRows) {
					errs <- fmt.Errorf("worker %d: %d rows, want %d", w, len(got), len(wantRows))
					return
				}
				for i := range got {
					if got[i].Labels[0] != wantRows[i].Labels[0] || got[i].Dist != wantRows[i].Dist {
						errs <- fmt.Errorf("worker %d: row %d = %v, want %v", w, i, got[i], wantRows[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedMatchesOneShotCorpus runs the full L4All corpus through
// Prepare+Exec and requires byte-identical ranked emission to the one-shot
// path, with the compile counters flat across repeated executions.
func TestPreparedMatchesOneShotCorpus(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	// Pin the ranked backend: this test compares an exhaustive one-shot
	// against a Limit-200 Exec, and auto selection legitimately gives the two
	// different engines (hence different distance-0 orders) on exact corpus
	// queries. Exhaustive bulk-vs-ranked equivalence is pinned by the bulk
	// differential suite.
	eng := NewEngine(g, ont).WithOptions(Options{Backend: BackendRanked})
	for _, q := range L4AllQueries() {
		pq, err := eng.PrepareText(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for _, mode := range []Mode{Exact, Approx, Relax} {
			oneShot, err := eng.QueryTextMode(q.Text, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", q.ID, mode, err)
			}
			want, err := oneShot.Collect(200)
			if err != nil {
				t.Fatalf("%s/%v: %v", q.ID, mode, err)
			}
			rows, err := pq.Exec(context.Background(), ExecOptions{Limit: 200, Mode: ModeOverride(mode)})
			if err != nil {
				t.Fatalf("%s/%v: Exec: %v", q.ID, mode, err)
			}
			got, err := rows.Collect(0)
			rows.Close()
			if err != nil {
				t.Fatalf("%s/%v: Collect: %v", q.ID, mode, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%v: prepared %d rows, one-shot %d", q.ID, mode, len(got), len(want))
			}
			for i := range got {
				if got[i].Dist != want[i].Dist || got[i].Labels[0] != want[i].Labels[0] {
					t.Fatalf("%s/%v row %d: prepared %v, one-shot %v", q.ID, mode, i, got[i], want[i])
				}
			}
			// Second execution of the same variant compiles nothing.
			compilesAfter, _ := pq.CompileStats()
			rows, err = pq.Exec(context.Background(), ExecOptions{Limit: 200, Mode: ModeOverride(mode)})
			if err != nil {
				t.Fatalf("%s/%v: re-Exec: %v", q.ID, mode, err)
			}
			if _, err := rows.Collect(0); err != nil {
				t.Fatalf("%s/%v: re-Collect: %v", q.ID, mode, err)
			}
			rows.Close()
			if again, _ := pq.CompileStats(); again != compilesAfter {
				t.Fatalf("%s/%v: repeated Exec recompiled (%d -> %d automata)", q.ID, mode, compilesAfter, again)
			}
		}
	}
}
