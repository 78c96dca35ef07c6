package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"omega/internal/automaton"
)

func drainAnyOrder(t *testing.T, it Iterator) []Answer {
	t.Helper()
	var out []Answer
	for {
		a, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

func drainExec(t *testing.T, ex *Execution, limit int) []QueryAnswer {
	t.Helper()
	var out []QueryAnswer
	for limit <= 0 || len(out) < limit {
		a, ok, err := ex.Next()
		if err != nil {
			t.Fatalf("Exec Next: %v", err)
		}
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// TestPreparedExecMatchesOpenQuery fuzzes the prepared path against the
// one-shot path: byte-identical ranked emission over random graphs, modes
// and option sets, and repeated Execs of one Prepared agree with each other.
func TestPreparedExecMatchesOpenQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	ont := testOnt()
	res := []string{"p", "p.q", "p|q", "p.q-", "p*", "(p|q).r", "p|q|r"}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, ont)
		mode := []automaton.Mode{automaton.Exact, automaton.Approx, automaton.Relax, automaton.Flex}[rng.Intn(4)]
		c := conj([]string{"?X", "n0", "C1"}[rng.Intn(3)], res[rng.Intn(len(res))], []string{"?Y", "n2"}[rng.Intn(2)], mode)
		if !c.Subject.IsVar && !c.Object.IsVar {
			continue // no variable to project
		}
		q := &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}
		opts := Options{
			DistanceAware: rng.Intn(2) == 0,
			Disjunction:   rng.Intn(2) == 0,
			MaxPsi:        []int32{0, 2, 1 << 20}[rng.Intn(3)],
			RareSide:      rng.Intn(4) == 0,
			Rewrite:       rng.Intn(4) == 0,
		}

		it, err := OpenQuery(g, ont, q, opts)
		if err != nil {
			t.Fatalf("trial %d: OpenQuery: %v", trial, err)
		}
		want := drainQuery(t, it, 1<<20)

		p, err := PrepareQuery(g, ont, q, opts)
		if err != nil {
			t.Fatalf("trial %d: PrepareQuery: %v", trial, err)
		}
		for rep := 0; rep < 2; rep++ {
			ex, err := p.Exec(context.Background(), ExecOptions{})
			if err != nil {
				t.Fatalf("trial %d rep %d: Exec: %v", trial, rep, err)
			}
			got := drainExec(t, ex, 1<<20)
			if len(got) != len(want) {
				t.Fatalf("trial %d rep %d (%s opts=%+v): prepared emitted %d answers, one-shot %d",
					trial, rep, c, opts, len(got), len(want))
			}
			for i := range got {
				if !sameQueryAnswer(got[i], want[i]) {
					t.Fatalf("trial %d rep %d (%s): answer %d diverged: prepared %+v, one-shot %+v",
						trial, rep, c, i, got[i], want[i])
				}
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("trial %d: Close: %v", trial, err)
			}
		}
		// Exec never compiles: the counters are fixed at Prepare time.
		if n, _ := p.CompileStats(); n < 1 {
			t.Fatalf("trial %d: CompileStats reports %d automata", trial, n)
		}
	}
}

func headFor(c Conjunct) []string {
	var head []string
	if c.Subject.IsVar {
		head = append(head, c.Subject.Name)
	}
	if c.Object.IsVar && (!c.Subject.IsVar || c.Object.Name != c.Subject.Name) {
		head = append(head, c.Object.Name)
	}
	return head
}

func sameQueryAnswer(a, b QueryAnswer) bool {
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

// TestPreparedModeVariantCompiledOnce pins the amortisation contract for
// mode overrides: the first Exec with an override compiles the variant, the
// second reuses it, and an override equal to the written modes reuses the
// default plan outright.
func TestPreparedModeVariantCompiledOnce(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("a", "p.p", "?X", automaton.Exact)
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{c}}
	p, err := PrepareQuery(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := p.CompileStats()

	exact := automaton.Exact
	ex, err := p.Exec(context.Background(), ExecOptions{Mode: &exact})
	if err != nil {
		t.Fatal(err)
	}
	drainExec(t, ex, 10)
	if n, _ := p.CompileStats(); n != base {
		t.Fatalf("override equal to the written mode recompiled: %d -> %d automata", base, n)
	}

	approx := automaton.Approx
	for rep := 0; rep < 3; rep++ {
		ex, err := p.Exec(context.Background(), ExecOptions{Mode: &approx})
		if err != nil {
			t.Fatal(err)
		}
		if len(drainExec(t, ex, 100)) == 0 {
			t.Fatal("APPROX variant produced nothing")
		}
	}
	n1, _ := p.CompileStats()
	if n1 <= base {
		t.Fatalf("APPROX variant never compiled (%d automata)", n1)
	}
	ex, err = p.Exec(context.Background(), ExecOptions{Mode: &approx})
	if err != nil {
		t.Fatal(err)
	}
	drainExec(t, ex, 100)
	if n2, _ := p.CompileStats(); n2 != n1 {
		t.Fatalf("APPROX variant recompiled on a later Exec: %d -> %d automata", n1, n2)
	}
}

// TestExecContextCancellation covers the typed error mapping and the
// within-one-iteration promise for a context canceled before and during
// iteration, across the plain, distance-aware and disjunction drivers.
func TestExecContextCancellation(t *testing.T) {
	g, ont := tinyGraph(t)
	for _, opts := range []Options{
		{},
		{DistanceAware: true},
		{Disjunction: true},
		{DistanceAware: true, DistanceRestart: true},
	} {
		c := conj("a", "(p|q).p", "?X", automaton.Approx)
		q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{c}}
		p, err := PrepareQuery(g, ont, q, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Canceled before the first Next.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ex, err := p.Exec(ctx, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ex.Next(); ok || !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("opts=%+v: Next on canceled ctx = (%v, %v), want ErrCanceled", opts, ok, err)
		}
		// The error is sticky.
		if _, _, err := ex.Next(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("opts=%+v: canceled error not sticky: %v", opts, err)
		}

		// Canceled mid-stream: the very next call reports it.
		ctx, cancel = context.WithCancel(context.Background())
		ex, err = p.Exec(ctx, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ex.Next(); !ok || err != nil {
			t.Fatalf("opts=%+v: first answer: (%v, %v)", opts, ok, err)
		}
		cancel()
		if _, ok, err := ex.Next(); ok || !errors.Is(err, ErrCanceled) {
			t.Fatalf("opts=%+v: Next after mid-stream cancel = (%v, %v), want ErrCanceled", opts, ok, err)
		}

		// Expired deadline maps to ErrDeadline.
		dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		ex, err = p.Exec(dctx, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ex.Next(); ok || !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("opts=%+v: Next past deadline = (%v, %v), want ErrDeadline", opts, ok, err)
		}
		dcancel()
	}
}

// TestExecCloseContract: Close is idempotent, Next-after-Close reports
// ErrClosed, and Close after natural exhaustion stays a no-op.
func TestExecCloseContract(t *testing.T) {
	g, ont := tinyGraph(t)
	for _, tc := range []struct {
		c    Conjunct
		opts Options
	}{
		{conj("a", "p.p", "?X", automaton.Approx), Options{}},
		{conj("a", "p.p", "?X", automaton.Approx), Options{DistanceAware: true}},
		{conj("a", "p.p", "?X", automaton.Approx), Options{DistanceAware: true, DistanceRestart: true}},
		{conj("a", "(p|q).p", "?X", automaton.Approx), Options{Disjunction: true}},
		{conj("?X", "p", "?Y", automaton.Exact), Options{Backend: BackendBulk}},
	} {
		q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{tc.c}}
		p, err := PrepareQuery(g, ont, q, tc.opts)
		if err != nil {
			t.Fatal(err)
		}

		// Abandon mid-stream.
		ex, err := p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ex.Next(); !ok || err != nil {
			t.Fatalf("opts=%+v: first answer: (%v, %v)", tc.opts, ok, err)
		}
		if err := ex.Close(); err != nil {
			t.Fatalf("opts=%+v: Close: %v", tc.opts, err)
		}
		if err := ex.Close(); err != nil {
			t.Fatalf("opts=%+v: second Close: %v", tc.opts, err)
		}
		if _, ok, err := ex.Next(); ok || !errors.Is(err, ErrClosed) {
			t.Fatalf("opts=%+v: Next after Close = (%v, %v), want ErrClosed", tc.opts, ok, err)
		}

		// Exhaust, then Close.
		ex, err = p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		drainExec(t, ex, 0)
		if err := ex.Close(); err != nil {
			t.Fatalf("opts=%+v: Close after exhaustion: %v", tc.opts, err)
		}
	}
}

// TestExecOptionsLimitAndMaxDist: Limit truncates the stream, MaxDist stops
// before the first over-budget answer, and both leave the emitted prefix
// identical to the unrestricted run.
func TestExecOptionsLimitAndMaxDist(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("a", "p.p", "?X", automaton.Approx)
	q := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{c}}
	p, err := PrepareQuery(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Exec(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := drainExec(t, full, 0)
	if len(all) < 3 {
		t.Fatalf("fixture too small: %d answers", len(all))
	}

	ex, err := p.Exec(context.Background(), ExecOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	lim := drainExec(t, ex, 0)
	if len(lim) != 2 || !sameQueryAnswer(lim[0], all[0]) || !sameQueryAnswer(lim[1], all[1]) {
		t.Fatalf("Limit=2 emitted %+v, want the first two of %+v", lim, all)
	}

	cap := all[len(all)/2].Dist // MaxDist 0 means unlimited, so cap above it
	if cap == 0 {
		cap = 1
	}
	ex, err = p.Exec(context.Background(), ExecOptions{MaxDist: cap})
	if err != nil {
		t.Fatal(err)
	}
	capped := drainExec(t, ex, 0)
	var want []QueryAnswer
	for _, a := range all {
		if a.Dist <= cap {
			want = append(want, a)
		}
	}
	if len(capped) != len(want) {
		t.Fatalf("MaxDist=%d emitted %d answers, want %d", cap, len(capped), len(want))
	}
	for i := range capped {
		if !sameQueryAnswer(capped[i], want[i]) {
			t.Fatalf("MaxDist answer %d = %+v, want %+v", i, capped[i], want[i])
		}
	}

	// MaxDist must agree with the unrestricted prefix in distance-aware mode
	// too (where it additionally caps ψ stepping).
	pda, err := PrepareQuery(g, ont, q, Options{DistanceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err = pda.Exec(context.Background(), ExecOptions{MaxDist: cap})
	if err != nil {
		t.Fatal(err)
	}
	cappedDA := drainExec(t, ex, 0)
	if len(cappedDA) != len(want) {
		t.Fatalf("distance-aware MaxDist=%d emitted %d answers, want %d", cap, len(cappedDA), len(want))
	}
	for i := range cappedDA {
		if !sameQueryAnswer(cappedDA[i], want[i]) {
			t.Fatalf("distance-aware MaxDist answer %d = %+v, want %+v", i, cappedDA[i], want[i])
		}
	}

	// Per-exec tuple budget overrides the prepared value.
	ex, err = p.Exec(context.Background(), ExecOptions{MaxTuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := ex.Next()
		if err != nil {
			if !errors.Is(err, ErrTupleBudget) {
				t.Fatalf("budget error = %v, want ErrTupleBudget", err)
			}
			break
		}
		if !ok {
			t.Fatal("MaxTuples=1 never hit the budget")
		}
	}
}

// TestQuickDisjunctionResumableMatchesRestart fuzzes the resumable
// per-branch disjunction driver against the retained per-(branch, phase)
// restart reference: byte-identical ranked emission, and the resumable
// driver never pops more tuples than the restarting one.
func TestQuickDisjunctionResumableMatchesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	ont := testOnt()
	res := []string{"p|q", "(p.q)|r", "p|q|r", "(p|q)|(r.p)", "p*|q", "p-|q", "(p.p)|(q.q)|r"}
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, ont)
		mode := []automaton.Mode{automaton.Approx, automaton.Relax, automaton.Flex}[rng.Intn(3)]
		c := conj([]string{"?X", "n0", "C1"}[rng.Intn(3)], res[rng.Intn(len(res))], []string{"?Y", "n2"}[rng.Intn(2)], mode)
		opts := Options{
			Disjunction:  true,
			MaxPsi:       []int32{0, 1, 2, 3, 5, 1 << 20}[rng.Intn(6)],
			BatchSize:    randBatchSize(rng, 1, 7, 100),
			NoFinalFirst: rng.Intn(4) == 0,
		}
		if rng.Intn(3) == 0 {
			// Non-unit costs: φ = 2, so some grid points re-admit nothing and
			// the resumable driver skips phases the reference still runs.
			opts.Edit = automaton.EditCosts{Insert: 2, Delete: 3, Substitute: 2}
			opts.Relax = automaton.RelaxCosts{Beta: 2, Gamma: 5}
		}
		restartOpts := opts
		restartOpts.DistanceRestart = true

		resIt, err := OpenConjunct(g, ont, c, restartOpts)
		if err != nil {
			t.Fatalf("trial %d %s: restart OpenConjunct: %v", trial, c, err)
		}
		incIt, err := OpenConjunct(g, ont, c, opts)
		if err != nil {
			t.Fatalf("trial %d %s: resumable OpenConjunct: %v", trial, c, err)
		}
		// The disjunction stream is monotone only phase-by-phase: with
		// non-uniform costs, branches interleave distances inside the band
		// (ψ−φ, ψ]. The contract under test is byte-identical emission, so
		// drain without the global monotonicity assertion.
		res := drainAnyOrder(t, resIt)
		inc := drainAnyOrder(t, incIt)
		if len(inc) != len(res) {
			t.Fatalf("trial %d %s opts=%+v: resumable emitted %d answers, restart %d\ninc=%v\nres=%v",
				trial, c, opts, len(inc), len(res), inc, res)
		}
		for i := range inc {
			if inc[i] != res[i] {
				t.Fatalf("trial %d %s opts=%+v: answer %d diverged: resumable %+v, restart %+v",
					trial, c, opts, i, inc[i], res[i])
			}
		}
		is, rs := incIt.Stats(), resIt.Stats()
		if is.TuplesPopped > is.TuplesAdded {
			t.Fatalf("trial %d %s: resumable popped %d tuples but only added %d — some tuple was processed twice",
				trial, c, is.TuplesPopped, is.TuplesAdded)
		}
		if is.TuplesPopped > rs.TuplesPopped {
			t.Fatalf("trial %d %s: resumable popped %d tuples, restart %d — resuming must never do more work",
				trial, c, is.TuplesPopped, rs.TuplesPopped)
		}
	}
}

// TestDisjunctionResumableReinjects pins that the resumable disjunction
// actually resumes: a multi-phase alternation run reports reinjected tuples
// (the restart fallback would report zero with more than one phase).
func TestDisjunctionResumableReinjects(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("a", "(p.p)|(q.q)", "?X", automaton.Approx)
	it, err := OpenConjunct(g, ont, c, Options{Disjunction: true, MaxPsi: 3})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it, 1<<20)
	s := it.Stats()
	if s.Phases <= 1 {
		t.Fatalf("fixture ran %d phases, want > 1", s.Phases)
	}
	if s.Reinjected == 0 {
		t.Fatal("multi-phase resumable disjunction reinjected nothing — restart-style recomputation?")
	}
	if s.Deferred < s.Reinjected {
		t.Fatalf("reinjected %d > deferred %d", s.Reinjected, s.Deferred)
	}
}
