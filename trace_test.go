package omega

import (
	"context"
	"errors"
	"testing"
	"time"

	"omega/internal/fault"
	"omega/internal/l4all"
	"omega/internal/obs"
)

// Span-tree regression tests: the taxonomy of trace spans is part of the
// observable surface (operators build dashboards and habits around the
// names), so these tests pin the tree shape a traced execution produces for
// each backend and driver. New spans may be added; the ones asserted here
// must not silently disappear or reparent.

// tracedRun executes text on eng with a fresh trace and drains it fully,
// returning the summary (taken after Close so the close span is in the tree)
// and the final stats.
func tracedRun(t *testing.T, eng *Engine, text string, eo ExecOptions) (*TraceSummary, Stats) {
	t.Helper()
	pq, err := eng.PrepareText(text)
	if err != nil {
		t.Fatalf("PrepareText(%q): %v", text, err)
	}
	eo.Trace = NewTrace("trace-test-" + t.Name())
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(0); err != nil {
		t.Fatal(err)
	}
	stats := rows.Stats()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	sum := rows.TraceSummary()
	if sum == nil {
		t.Fatal("TraceSummary returned nil for a traced run")
	}
	return sum, stats
}

// requireSpan asserts the named span exists and returns it.
func requireSpan(t *testing.T, sum *TraceSummary, name string) *TraceSpan {
	t.Helper()
	n := sum.Node(name)
	if n == nil {
		t.Fatalf("span %q missing from trace %s", name, sum.ID)
	}
	return n
}

func TestTraceSpanTreeRanked(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	sum, stats := tracedRun(t, eng, "(?X) <- APPROX (Librarians, type-.job-.next, ?X)", ExecOptions{Limit: 50})

	if sum.ID != "trace-test-TestTraceSpanTreeRanked" {
		t.Fatalf("trace ID not propagated: %q", sum.ID)
	}
	if sum.Root == nil || sum.Root.Name != obs.SpanRequest {
		t.Fatalf("root span is not %q: %+v", obs.SpanRequest, sum.Root)
	}
	exec := requireSpan(t, sum, obs.SpanExec)
	if exec.Attrs["rows"] == 0 {
		t.Fatalf("exec span has no rows attr: %+v", exec.Attrs)
	}
	if exec.Attrs["ttfr_us"] == 0 {
		t.Fatalf("exec span has no ttfr_us attr: %+v", exec.Attrs)
	}
	conj := requireSpan(t, sum, obs.SpanConjunct)
	if conj.Attrs["tuples_popped"] == 0 {
		t.Fatalf("conjunct span has no tuples_popped: %+v", conj.Attrs)
	}
	requireSpan(t, sum, obs.SpanClose)
	if stats.TTFRNanos == 0 {
		t.Fatalf("Stats.TTFRNanos not stamped: %+v", stats)
	}
}

func TestTraceSpanTreeBulk(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{Backend: BackendBulk})
	sum, stats := tracedRun(t, eng, "(?X, ?Y) <- (?X, job.type, ?Y)", ExecOptions{Limit: 100})

	conj := requireSpan(t, sum, obs.SpanConjunct)
	if conj.Attrs["bulk"] != 1 {
		t.Fatalf("bulk conjunct not marked bulk=1: %+v", conj.Attrs)
	}
	idx := requireSpan(t, sum, obs.SpanBulkIndex)
	if idx.Attrs["bytes"] == 0 {
		t.Fatalf("bulk_index span has no bytes attr: %+v", idx.Attrs)
	}
	if stats.Backend != "bulk" {
		t.Fatalf("expected bulk backend, got %q", stats.Backend)
	}
}

func TestTraceSpanTreeDistanceAware(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	// RELAX over the ontology steps ψ through several phases; every resumed
	// phase (phase 2 onward) must record a psi_phase span under the exec span.
	sum, stats := tracedRun(t, eng, "(?X) <- RELAX (Librarians, type-, ?X)", ExecOptions{})
	if stats.Phases < 2 {
		t.Skipf("query ran in %d phase(s); need ≥ 2 for psi_phase spans", stats.Phases)
	}
	phase := requireSpan(t, sum, obs.SpanPsiPhase)
	if phase.Attrs["psi"] == 0 {
		t.Fatalf("psi_phase span has no psi attr: %+v", phase.Attrs)
	}
	// Resumed phases: one span each, phase 1 is covered by the conjunct span.
	exec := requireSpan(t, sum, obs.SpanExec)
	var phaseSpans int
	for _, c := range exec.Children {
		if c.Name == obs.SpanPsiPhase {
			phaseSpans++
		}
	}
	if phaseSpans != stats.Phases-1 {
		t.Fatalf("expected %d psi_phase spans under exec, found %d", stats.Phases-1, phaseSpans)
	}
}

// phaseSpans returns the psi_phase spans directly under the summary's exec
// span.
func phaseSpans(t *testing.T, sum *TraceSummary) []*TraceSpan {
	t.Helper()
	var out []*TraceSpan
	for _, c := range requireSpan(t, sum, obs.SpanExec).Children {
		if c.Name == obs.SpanPsiPhase {
			out = append(out, c)
		}
	}
	return out
}

// TestTraceSpanTreeDisjunction: a decomposed conjunct runs the same ψ-phase
// driver as a distance-aware one, so it records the same psi_phase spans —
// one per resumed phase, under the exec span, each carrying its ψ — and every
// way the stream can end (exhaustion, an evaluation error, Close, Abort) ends
// the phase span that was open.
func TestTraceSpanTreeDisjunction(t *testing.T) {
	g, ont := datasets().YAGO()
	eng := NewEngine(g, ont).WithOptions(Options{Disjunction: true})
	text := yagoQueryText(t, "Q9") // a top-level alternation; RELAX answers appear in phase 2
	eo := ExecOptions{Mode: ModeOverride(Relax)}

	sum, stats := tracedRun(t, eng, text, eo)
	if stats.Phases < 2 {
		t.Fatalf("query ran in %d phase(s); need ≥ 2 for psi_phase spans", stats.Phases)
	}
	spans := phaseSpans(t, sum)
	if len(spans) != stats.Phases-1 {
		t.Fatalf("expected %d psi_phase spans under exec, found %d", stats.Phases-1, len(spans))
	}
	for _, sp := range spans {
		if sp.Attrs["psi"] == 0 {
			t.Fatalf("psi_phase span has no psi attr: %+v", sp.Attrs)
		}
	}

	pq, err := eng.PrepareText(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, end := range []struct {
		name string
		stop func(t *testing.T, rows *Rows)
	}{
		{"error", func(t *testing.T, rows *Rows) {
			if err := fault.Configure("core.row=error#1", 1); err != nil {
				t.Fatal(err)
			}
			defer fault.Reset()
			if _, _, err := rows.Next(); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Next = %v, want the injected evaluation error", err)
			}
		}},
		{"close", func(t *testing.T, rows *Rows) { rows.Close() }},
		{"abort", func(t *testing.T, rows *Rows) { rows.Abort(errors.New("aborted mid-phase")) }},
	} {
		t.Run(end.name, func(t *testing.T) {
			eo := eo
			eo.Trace = NewTrace("")
			rows, err := pq.Exec(context.Background(), eo)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			// The first row arrives inside a resumed phase: its span is open.
			if _, ok, err := rows.Next(); !ok || err != nil {
				t.Fatalf("first row: ok=%v err=%v", ok, err)
			}
			if rows.Stats().Phases < 2 {
				t.Fatal("first row arrived in phase 1; no phase span to end")
			}
			end.stop(t, rows)
			// A summary reports a span still open as ending at the time of the
			// snapshot, so only an ended span reads the same twice.
			before := phaseSpans(t, rows.TraceSummary())
			time.Sleep(2 * time.Millisecond)
			after := phaseSpans(t, rows.TraceSummary())
			if len(before) == 0 || len(after) != len(before) {
				t.Fatalf("psi_phase spans: %d, then %d", len(before), len(after))
			}
			for i := range before {
				if before[i].DurMs != after[i].DurMs {
					t.Fatalf("psi_phase span %d still open after %s: %.3f ms, then %.3f ms",
						i, end.name, before[i].DurMs, after[i].DurMs)
				}
			}
		})
	}
}

func TestTraceSpanTreeMultiConjunct(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	sum, _ := tracedRun(t, eng, "(?X, ?Y) <- (?X, job, ?Y), (?Y, type, Occupation)", ExecOptions{Limit: 20})

	exec := requireSpan(t, sum, obs.SpanExec)
	var conjuncts []*TraceSpan
	for _, c := range exec.Children {
		if c.Name == obs.SpanConjunct {
			conjuncts = append(conjuncts, c)
		}
	}
	if len(conjuncts) != 2 {
		t.Fatalf("expected 2 conjunct spans, found %d", len(conjuncts))
	}
	for want, c := range conjuncts {
		if got := c.Attrs["idx"]; got != int64(want) {
			t.Fatalf("conjunct %d has idx attr %d", want, got)
		}
	}
}

// TestTraceDisabledNoAllocs pins the hot-path contract: every instrumented
// site guards with one nil check, and the nil-receiver Trace methods
// themselves allocate nothing — so an untraced request pays zero allocations
// to the observability layer.
func TestTraceDisabledNoAllocs(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(obs.Root, obs.SpanQuantum)
		tr.SetAttr(sp, "rows", 42)
		tr.End(sp)
		_ = tr.ID()
		if s := tr.Summary(); s != nil {
			t.Fatal("nil trace produced a summary")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-trace operations allocate: %v allocs/run", allocs)
	}
}

// TestTraceSpillIOCounters: a spilling execution reports the bytes and time
// its spill files cost, both in Stats and on the conjunct span.
func TestTraceSpillIO(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{
		DistanceAware:  true,
		SpillThreshold: 8,
		SpillDir:       t.TempDir(),
	})
	sum, stats := tracedRun(t, eng, "(?X) <- APPROX (Librarians, type-.job-.next, ?X)", ExecOptions{Limit: 500})
	if stats.SpillIOBytes == 0 {
		t.Skip("execution did not spill; cannot assert spill I/O counters")
	}
	if stats.SpillIONanos == 0 {
		t.Fatalf("SpillIOBytes=%d but SpillIONanos=0", stats.SpillIOBytes)
	}
	conj := requireSpan(t, sum, obs.SpanConjunct)
	if conj.Attrs["spill_io_bytes"] == 0 {
		t.Fatalf("conjunct span missing spill_io_bytes: %+v", conj.Attrs)
	}
}
