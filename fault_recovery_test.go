package omega

import (
	"context"
	"errors"
	"testing"

	"omega/internal/fault"
	"omega/internal/l4all"
)

// Regression tests for the pool-poisoning fix: an execution that ends in an
// error or panic must discard its EvalPool bundle instead of recycling it,
// and the pool must keep emitting byte-identical sequences afterwards. These
// tests drive the public API with the failpoint registry armed, so they pin
// the whole path: injected fault → typed sticky error → bundle discarded →
// next pooled execution unaffected.

// withFaults arms the failpoint registry for one test and guarantees it is
// disarmed afterwards (the registry is process-global, so tests touching it
// must not run in parallel).
func withFaults(t *testing.T, spec string, seed int64) {
	t.Helper()
	if err := fault.Configure(spec, seed); err != nil {
		t.Fatalf("fault.Configure(%q): %v", spec, err)
	}
	t.Cleanup(fault.Reset)
}

// collectAll drains rows fully, returning the rows gathered and the terminal
// error (nil on clean exhaustion).
func collectAll(rows *Rows, limit int) ([]Row, error) {
	got, err := rows.Collect(limit)
	rows.Close()
	return got, err
}

// assertSameRows requires got and want to agree row-for-row.
func assertSameRows(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Dist != want[i].Dist || got[i].Labels[0] != want[i].Labels[0] {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestPoolDiscardsBundleOnInjectedError arms the core.row failpoint so a
// pooled execution fails mid-stream, then requires (a) the typed injected
// error surfaces through the Rows sticky-error contract, (b) the pool counts
// the bundle as poisoned rather than recycling it, and (c) a subsequent
// pooled execution is byte-identical to a fresh one — the poisoned bundle
// never reaches another request.
func TestPoolDiscardsBundleOnInjectedError(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"distance-aware", Options{DistanceAware: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(g, ont).WithOptions(tc.opts)
			pq, err := eng.PrepareText(approxQuery)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := pq.Exec(context.Background(), ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := collectAll(fresh, 200)
			if err != nil {
				t.Fatalf("fresh Collect: %v", err)
			}

			pool := NewEvalPool(4)
			// Warm the pool with one clean pooled run so the faulty run below
			// draws a recycled bundle, not a fresh allocation.
			warm, err := pq.Exec(context.Background(), ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := collectAll(warm, 200); err != nil {
				t.Fatalf("warm Collect: %v", err)
			}

			// One fire, then the site stays disarmed (#1 budget): the faulty
			// run fails, every later run is clean.
			withFaults(t, "core.row=error#1", 1)
			rows, err := pq.Exec(context.Background(), ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			_, err = collectAll(rows, 200)
			if err == nil {
				t.Fatal("injected fault did not surface")
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("error %v does not wrap fault.ErrInjected", err)
			}
			// The sticky contract: Next after the failure repeats the error.
			if _, ok, err2 := rows.Next(); ok || !errors.Is(err2, fault.ErrInjected) {
				t.Fatalf("post-failure Next: ok=%v err=%v, want sticky injected error", ok, err2)
			}
			fault.Reset()

			s := pool.Stats()
			if s.Poisoned == 0 {
				t.Fatalf("failed execution did not poison its bundle: %+v", s)
			}

			// The pool must still serve byte-identical sequences.
			after, err := pq.Exec(context.Background(), ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			got, err := collectAll(after, 200)
			if err != nil {
				t.Fatalf("post-poison pooled Collect: %v", err)
			}
			assertSameRows(t, "post-poison pooled vs fresh", got, want)
		})
	}
}

// TestPoolDiscardsBundleOnAbort covers the panic-recovery path: a serving
// layer that recovers a panic calls Rows.Abort, which must poison the pooled
// bundle and leave the pool emitting byte-identical sequences.
func TestPoolDiscardsBundleOnAbort(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	pq, err := eng.PrepareText(approxQuery)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := collectAll(fresh, 200)
	if err != nil {
		t.Fatalf("fresh Collect: %v", err)
	}

	pool := NewEvalPool(4)
	rows, err := pq.Exec(context.Background(), ExecOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	// Pull a prefix so the bundle holds live mid-query state, then abort as a
	// panic-recovery path would.
	for i := 0; i < 5; i++ {
		if _, ok, err := rows.Next(); !ok || err != nil {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	boom := errors.New("recovered panic: slice bounds out of range")
	rows.Abort(boom)
	if _, ok, err := rows.Next(); ok || !errors.Is(err, boom) {
		t.Fatalf("post-Abort Next: ok=%v err=%v, want sticky abort error", ok, err)
	}
	if s := pool.Stats(); s.Poisoned == 0 {
		t.Fatalf("aborted execution did not poison its bundle: %+v", s)
	}

	after, err := pq.Exec(context.Background(), ExecOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectAll(after, 200)
	if err != nil {
		t.Fatalf("post-abort pooled Collect: %v", err)
	}
	assertSameRows(t, "post-abort pooled vs fresh", got, want)
}
