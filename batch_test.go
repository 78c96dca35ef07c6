package omega

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"omega/internal/l4all"
)

// Tests for the block-at-a-time pull (Rows.NextBatch): it is the path Next,
// Collect and ForEach sit on, so draining by batches of any size must equal
// draining row by row, cuts must land exactly where Next puts them, and
// abandoning an execution between batches must release exactly what
// abandoning it between rows does.

// copyRow detaches a batch row from the storage NextBatch overwrites.
func copyRow(r Row) Row {
	return Row{
		Vars:   r.Vars,
		Nodes:  append([]NodeID(nil), r.Nodes...),
		Labels: append([]string(nil), r.Labels...),
		Dist:   r.Dist,
	}
}

func drainNext(t *testing.T, rows *Rows) []Row {
	t.Helper()
	var out []Row
	for {
		r, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func drainBatches(t *testing.T, rows *Rows, size int) []Row {
	t.Helper()
	dst := make([]Row, size)
	var out []Row
	for {
		n, err := rows.NextBatch(dst)
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if n == 0 {
			return out
		}
		for _, r := range dst[:n] {
			out = append(out, copyRow(r))
		}
	}
}

// workStats strips the wall-clock fields, leaving the counters that must not
// depend on how an execution was drained. (The accounted peak of a parallel
// run depends on how its workers happened to overlap, whoever drains it.)
func workStats(s Stats) Stats {
	s.TTFRNanos, s.MergeWaitNanos, s.SpillIONanos = 0, 0, 0
	if s.Parallelism > 1 {
		s.MemPeakBytes = 0
	}
	return s
}

func requireSameBatchRows(t *testing.T, label string, want, got []Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows by Next, %d by NextBatch", label, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: row %d differs: Next %+v, NextBatch %+v", label, i, want[i], got[i])
		}
	}
}

// TestNextBatchMatchesNext: over the L4All corpus (plus the shapes it lacks:
// constant objects, same-variable conjuncts, collapsing projections, a join,
// alternation) on both backends, exhaustively in exact mode and top-k in
// APPROX and RELAX, draining by NextBatch with dst sizes 1, 7 and 64 equals
// draining by Next row for row — vars, nodes, labels, dist, order — and
// leaves identical Stats.
func TestNextBatchMatchesNext(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	var texts []string
	for _, q := range l4all.Queries() {
		texts = append(texts, q.Text)
	}
	texts = append(texts,
		"(?X) <- (?X, type, Librarians)",
		"(?X) <- (?X, next+, ?X)",
		"(?Y) <- (?X, job.type, ?Y)",
		"(?X, ?Z) <- (?X, next, ?Y), (?Y, job, ?Z)",
		"(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)",
	)
	type variant struct {
		name string
		opts Options
		eo   ExecOptions
	}
	approx, relax := Approx, Relax
	variants := []variant{
		{"exact/ranked", Options{Backend: BackendRanked}, ExecOptions{}},
		{"exact/bulk", Options{Backend: BackendBulk}, ExecOptions{}},
		{"exact/bulk/disjunction", Options{Backend: BackendBulk, Disjunction: true}, ExecOptions{}},
		{"exact/bulk/parallel", Options{Backend: BackendBulk}, ExecOptions{Parallelism: 4}},
		{"approx/top150", Options{DistanceAware: true}, ExecOptions{Mode: &approx, Limit: 150}},
		{"relax/top150", Options{DistanceAware: true}, ExecOptions{Mode: &relax, Limit: 150}},
	}
	bulkRows := 0
	for _, v := range variants {
		eng := NewEngine(g, ont).WithOptions(v.opts)
		for _, text := range texts {
			pq, err := eng.PrepareText(text)
			if err != nil {
				t.Fatalf("%s %q: %v", v.name, text, err)
			}
			ref, err := pq.Exec(context.Background(), v.eo)
			if err != nil {
				t.Fatal(err)
			}
			want := drainNext(t, ref)
			wantStats := workStats(ref.Stats())
			if wantStats.Backend == "bulk" {
				bulkRows += len(want)
			}
			for _, size := range []int{1, 7, 64} {
				label := fmt.Sprintf("%s %q dst=%d", v.name, text, size)
				rows, err := pq.Exec(context.Background(), v.eo)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBatchRows(t, label, want, drainBatches(t, rows, size))
				if got := workStats(rows.Stats()); got != wantStats {
					t.Fatalf("%s: Stats differ:\n Next      %+v\n NextBatch %+v", label, wantStats, got)
				}
			}
		}
	}
	if bulkRows == 0 {
		t.Fatal("no execution ran on the bulk backend — the multi-row batch path was never exercised")
	}
}

// TestNextBatchCuts: a Limit that lands in the middle of a lane block (and in
// the middle of a batch) returns exactly the Next prefix, a MaxDist cut on a
// ranked stream stops where Next stops, and a MaxDist on the bulk backend —
// whose rows are all at distance 0 — cuts nothing.
func TestNextBatchCuts(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	const scan = "(?X, ?Y) <- (?X, next+, ?Y)"
	bulk := NewEngine(g, ont).WithOptions(Options{Backend: BackendBulk})
	pq, err := bulk.PrepareText(scan)
	if err != nil {
		t.Fatal(err)
	}
	all, err := pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := drainNext(t, all)
	if len(full) < 500 {
		t.Fatalf("scan has only %d rows — too few to cut mid-block", len(full))
	}
	for _, limit := range []int{1, 5, 64, 65, 100, 333} {
		for _, size := range []int{7, 64} {
			rows, err := pq.Exec(context.Background(), ExecOptions{Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			if rows.Stats().Backend != "bulk" {
				t.Fatalf("limit %d: backend %q, want bulk", limit, rows.Stats().Backend)
			}
			got := drainBatches(t, rows, size)
			requireSameBatchRows(t, fmt.Sprintf("bulk limit=%d dst=%d", limit, size), full[:limit], got)
			if n, err := rows.NextBatch(make([]Row, size)); n != 0 || err != nil {
				t.Fatalf("limit %d: NextBatch after the cut = (%d, %v), want (0, nil)", limit, n, err)
			}
		}
	}
	capped, err := pq.Exec(context.Background(), ExecOptions{MaxDist: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBatchRows(t, "bulk maxdist=1", full, drainBatches(t, capped, 64))

	approx := Approx
	ranked := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	rq, err := ranked.PrepareText("(?X) <- (Librarians, type-.job-.next, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	for _, maxDist := range []int32{1, 2} {
		eo := ExecOptions{Mode: &approx, MaxDist: maxDist, Limit: 400}
		ref, err := rq.Exec(context.Background(), eo)
		if err != nil {
			t.Fatal(err)
		}
		want := drainNext(t, ref)
		if len(want) == 0 || want[len(want)-1].Dist > int(maxDist) {
			t.Fatalf("maxdist %d: reference drain has %d rows ending at %+v", maxDist, len(want), want)
		}
		rows, err := rq.Exec(context.Background(), eo)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBatchRows(t, fmt.Sprintf("approx maxdist=%d", maxDist), want, drainBatches(t, rows, 64))
		if got, wantS := workStats(rows.Stats()), workStats(ref.Stats()); got != wantS {
			t.Fatalf("maxdist %d: Stats differ:\n Next      %+v\n NextBatch %+v", maxDist, wantS, got)
		}
	}
}

// TestNextBatchAliasing pins the storage contract: a batch's rows point into
// buffers the next NextBatch overwrites, while rows handed out by Next are
// the caller's to keep.
func TestNextBatchAliasing(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{Backend: BackendBulk})
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, next+, ?Y)")
	if err != nil {
		t.Fatal(err)
	}

	rows, err := pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	first, second := make([]Row, 8), make([]Row, 8)
	if n, err := rows.NextBatch(first); n != 8 || err != nil {
		t.Fatalf("first batch = (%d, %v), want 8 rows", n, err)
	}
	kept := copyRow(first[0])
	if n, err := rows.NextBatch(second); n != 8 || err != nil {
		t.Fatalf("second batch = (%d, %v), want 8 rows", n, err)
	}
	if reflect.DeepEqual(copyRow(second[0]), kept) {
		t.Fatal("the scan returned the same row twice")
	}
	// first[0] was never touched by the caller, yet it now reads as the
	// second batch's first row: same storage.
	if !reflect.DeepEqual(first[0].Nodes, second[0].Nodes) || !reflect.DeepEqual(first[0].Labels, second[0].Labels) {
		t.Fatalf("batch rows are documented to alias batch storage, but the first batch survived the second call: %+v vs %+v", first[0], second[0])
	}

	// Rows from Next escape: collect them all, then check none was rewritten.
	it, err := pq.Exec(context.Background(), ExecOptions{Limit: 300})
	if err != nil {
		t.Fatal(err)
	}
	var held, snap []Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		held = append(held, r)
		snap = append(snap, copyRow(r))
	}
	requireSameBatchRows(t, "rows held across Next calls", snap, held)
}

// TestNextBatchLifecycle: Close, Abort and context cancellation between
// batches leave the evaluator pool exactly as they do between rows —
// recycled, poisoned, recycled — and the sticky-error contract holds for
// NextBatch as for Next.
func TestNextBatchLifecycle(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	pq, err := eng.PrepareText(spillQuery)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	type pull func(*Rows) (int, error)
	byRow := func(r *Rows) (int, error) {
		_, ok, err := r.Next()
		if ok {
			return 1, err
		}
		return 0, err
	}
	byBatch := func(r *Rows) (int, error) { return r.NextBatch(make([]Row, 16)) }

	scenario := func(next pull) (PoolStats, []error) {
		pool := NewEvalPool(4)
		var errs []error
		open := func(ctx context.Context) *Rows {
			rows, err := pq.Exec(ctx, ExecOptions{Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if n, err := next(rows); n == 0 || err != nil {
					t.Fatalf("pull %d = (%d, %v)", i, n, err)
				}
			}
			return rows
		}
		// Close between pulls: the bundle goes back to the pool.
		rows := open(context.Background())
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := next(rows)
		errs = append(errs, err)
		// Abort between pulls: the bundle is poisoned.
		rows = open(context.Background())
		rows.Abort(boom)
		_, err = next(rows)
		errs = append(errs, err)
		// Cancel between pulls: the next pull reports it and releases.
		ctx, cancel := context.WithCancel(context.Background())
		rows = open(ctx)
		cancel()
		_, err = next(rows)
		errs = append(errs, err)
		_, err = next(rows)
		errs = append(errs, err) // sticky
		return pool.Stats(), errs
	}

	wantPool, wantErrs := scenario(byRow)
	gotPool, gotErrs := scenario(byBatch)
	if gotPool != wantPool {
		t.Fatalf("pool after Close/Abort/cancel between batches = %+v, between rows = %+v", gotPool, wantPool)
	}
	if wantPool.Puts == 0 || wantPool.Poisoned != 1 {
		t.Fatalf("pool stats %+v: the scenario did not recycle and poison as intended", wantPool)
	}
	for i, want := range []error{ErrClosed, boom, ErrCanceled, ErrCanceled} {
		if !errors.Is(wantErrs[i], want) || !errors.Is(gotErrs[i], want) {
			t.Fatalf("step %d: Next reports %v, NextBatch %v, want %v", i, wantErrs[i], gotErrs[i], want)
		}
	}
}

// TestNextBatchSteadyStateAllocs: once a bulk scan is under way, pulling a
// batch allocates nothing — rows are carved out of storage the execution
// already owns.
func TestNextBatchSteadyStateAllocs(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{Backend: BackendBulk})
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, next+, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	dst := make([]Row, 64)
	for i := 0; i < 4; i++ { // warm: index build, first blocks, batch buffers
		if n, err := rows.NextBatch(dst); n == 0 || err != nil {
			t.Fatalf("warm-up batch %d = (%d, %v)", i, n, err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if n, err := rows.NextBatch(dst); n == 0 || err != nil {
			t.Fatalf("batch = (%d, %v): the scan is too short for this test", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextBatch allocates %.0f times per batch in steady state, want 0", allocs)
	}
}
