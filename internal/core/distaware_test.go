package core

import (
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
)

// checkIncrementalMatchesRestart runs the same distance-aware conjunct under
// the resumable ψ-phase driver and under its restart-based reference and
// requires byte-identical ranked emission: same answers, same distances, same
// order.
func checkIncrementalMatchesRestart(t *testing.T, trial int, g *graph.Graph, ont *ontology.Ontology, c Conjunct, opts Options) {
	t.Helper()
	incOpts := opts
	incOpts.DistanceAware = true
	incOpts.DistanceRestart = false
	resOpts := incOpts
	resOpts.DistanceRestart = true

	incIt, err := OpenConjunct(g, ont, c, incOpts)
	if err != nil {
		t.Fatalf("trial %d %s: incremental OpenConjunct: %v", trial, c, err)
	}
	resIt, err := OpenConjunct(g, ont, c, resOpts)
	if err != nil {
		t.Fatalf("trial %d %s: restart OpenConjunct: %v", trial, c, err)
	}
	inc := drain(t, incIt, 1<<20)
	res := drain(t, resIt, 1<<20)
	if len(inc) != len(res) {
		t.Fatalf("trial %d %s opts=%+v: incremental emitted %d answers, restart %d\ninc=%v\nres=%v",
			trial, c, opts, len(inc), len(res), inc, res)
	}
	for i := range inc {
		if inc[i] != res[i] {
			t.Fatalf("trial %d %s opts=%+v: answer %d diverged: incremental %+v, restart %+v",
				trial, c, opts, i, inc[i], res[i])
		}
	}
	// The whole point of resuming: work proportional to one traversal, not
	// one per phase. Popping a tuple twice means a phase recomputed.
	is, rs := incIt.Stats(), resIt.Stats()
	if is.TuplesPopped > is.TuplesAdded {
		t.Fatalf("trial %d %s: incremental popped %d tuples but only added %d — some tuple was processed twice",
			trial, c, is.TuplesPopped, is.TuplesAdded)
	}
	if rs.Phases > 1 && is.TuplesPopped > rs.TuplesPopped {
		t.Fatalf("trial %d %s: incremental popped %d tuples, restart %d — resuming must never do more work",
			trial, c, is.TuplesPopped, rs.TuplesPopped)
	}
}

// TestQuickIncrementalDistanceAwareMatchesRestart fuzzes the resumable
// ψ-phase driver against the per-phase restart reference over random graphs,
// modes, cost configurations (φ > 1 exercises grid stepping over deferred
// gaps), batching shapes and ψ caps.
func TestQuickIncrementalDistanceAwareMatchesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ont := testOnt()
	res := []string{"p", "p.q", "p|q", "p.q-", "p*", "p+.q", "type-", "(p|q).r"}
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, ont)
		re := res[rng.Intn(len(res))]
		mode := []automaton.Mode{automaton.Approx, automaton.Relax, automaton.Flex}[rng.Intn(3)]
		subj := []string{"?X", "n0", "C1"}[rng.Intn(3)]
		c := conj(subj, re, []string{"?Y", "n2"}[rng.Intn(2)], mode)
		opts := Options{
			MaxPsi:       []int32{0, 1, 2, 3, 5, 1 << 20}[rng.Intn(6)],
			BatchSize:    randBatchSize(rng, 1, 7, 100),
			NoFinalFirst: rng.Intn(4) == 0,
			NoSuccCache:  rng.Intn(4) == 0,
		}
		if rng.Intn(3) == 0 {
			// Non-unit costs: φ = 2, answer distances fall on a sparse grid,
			// so some phases re-admit nothing and the incremental driver
			// steps ψ across them.
			opts.Edit = automaton.EditCosts{Insert: 2, Delete: 3, Substitute: 2}
			opts.Relax = automaton.RelaxCosts{Beta: 2, Gamma: 5}
		}
		checkIncrementalMatchesRestart(t, trial, g, ont, c, opts)
	}
}

// TestIncrementalDistanceAwareMatchesPlain closes the triangle: the
// incremental driver must also agree with a plain (non-distance-aware) run on
// the answer set, up to the ψ cap.
func TestIncrementalDistanceAwareMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	ont := testOnt()
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, ont)
		re := []string{"p", "p.q", "p|q", "p.q-"}[rng.Intn(4)]
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], re, "?Y", automaton.Approx)
		maxPsi := int32(3)
		checkEquivalence(t, g, ont, c, Options{DistanceAware: true, MaxPsi: maxPsi}, true, maxPsi)
	}
}

// TestDistanceAwareStatsRegression pins the phase and re-injection counters
// of the incremental driver on a fixed workload. A silent fallback to
// restart-style evaluation shows up as Reinjected == 0 with Phases > 1, or
// as a popped count that jumps back to the restart driver's.
func TestDistanceAwareStatsRegression(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("a", "p.p", "?X", automaton.Approx)

	inc, err := OpenConjunct(g, ont, c, Options{DistanceAware: true, MaxPsi: 3})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, inc, 1000)
	is := inc.Stats()

	res, err := OpenConjunct(g, ont, c, Options{DistanceAware: true, DistanceRestart: true, MaxPsi: 3})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, res, 1000)
	rs := res.Stats()

	if is.Phases < 2 {
		t.Fatalf("incremental ran %d phases, want ≥ 2 (the workload defers)", is.Phases)
	}
	if is.Deferred == 0 || is.Reinjected == 0 {
		t.Fatalf("incremental Deferred=%d Reinjected=%d, want both > 0 — a zero means ψ-stepping recomputes instead of resuming",
			is.Deferred, is.Reinjected)
	}
	if is.Reinjected > is.Deferred {
		t.Fatalf("Reinjected=%d exceeds Deferred=%d", is.Reinjected, is.Deferred)
	}
	if rs.Deferred != 0 || rs.Reinjected != 0 {
		t.Fatalf("restart reference reports Deferred=%d Reinjected=%d, want 0", rs.Deferred, rs.Reinjected)
	}
	if is.TuplesPopped >= rs.TuplesPopped {
		t.Fatalf("incremental popped %d tuples, restart %d — want strictly fewer on a multi-phase workload",
			is.TuplesPopped, rs.TuplesPopped)
	}
	if is.TuplesPopped > is.TuplesAdded {
		t.Fatalf("incremental popped %d > added %d: some tuple was processed twice", is.TuplesPopped, is.TuplesAdded)
	}
	// Pin the exact counters for this fixed workload. A drift here means the
	// phase machinery changed behaviour: incremental popped creeping up to
	// the restart value is a fallback to recomputation; the restart value
	// creeping up is double-counted accounting (each counter must equal the
	// per-phase sum — the final phase is accumulated exactly once).
	if is.TuplesPopped != 84 || is.Phases != 4 || is.Deferred != 76 || is.Reinjected != 76 {
		t.Fatalf("incremental stats drifted: %+v (want popped=84 phases=4 deferred=76 reinjected=76)", is)
	}
	if rs.TuplesPopped != 205 || rs.Phases != 4 {
		t.Fatalf("restart stats drifted: %+v (want popped=205 phases=4)", rs)
	}
}

// TestDistanceAwareSkipsEmptyPhases pins the phase-skipping behaviour: with
// φ = 1 but all deferrals at distance ≥ 2 beyond each ψ, the incremental
// driver jumps ψ straight to populated grid points instead of running empty
// phases, while still emitting the identical sequence (covered by the
// differential tests above).
func TestDistanceAwareSkipsEmptyPhases(t *testing.T) {
	// a -p(2)-> b chain via custom costs: answers at even distances only.
	g, ont := tinyGraph(t)
	c := conj("a", "p.p", "?X", automaton.Approx)
	opts := Options{
		DistanceAware: true,
		MaxPsi:        8,
		Edit:          automaton.EditCosts{Insert: 2, Delete: 2, Substitute: 2},
	}
	it, err := OpenConjunct(g, ont, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, it, 1000)
	is := it.Stats()

	ropts := opts
	ropts.DistanceRestart = true
	rt, err := OpenConjunct(g, ont, c, ropts)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rt, 1000)
	rs := rt.Stats()

	if is.Phases > rs.Phases {
		t.Fatalf("incremental ran %d phases, restart %d — skipping can only reduce them", is.Phases, rs.Phases)
	}
}

// TestDistanceAwareWithSpilling drives the resumable evaluator under a
// spilling D_R and a spilling deferred frontier: answers must match the
// unspilled incremental run byte for byte, the frontier must actually have
// spilled, and the driver-owned finish must release both sets of files.
func TestDistanceAwareWithSpilling(t *testing.T) {
	g, ont := tinyGraph(t)
	c := conj("?X", "p.p", "?Y", automaton.Approx)
	opts := Options{DistanceAware: true, MaxPsi: 2, SpillThreshold: 4, SpillDir: t.TempDir()}
	it, err := OpenConjunct(g, ont, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := it.(*disjunction)
	if !ok || len(d.evals) != 1 {
		t.Fatalf("expected the ψ-phase driver over one branch, got %T", it)
	}
	as := drain(t, it, 10000)
	if d.evals[0].deferred.Spills() == 0 {
		t.Fatal("deferred frontier never spilled at threshold 4 — resident memory is unbounded again")
	}

	plainOpts := opts
	plainOpts.SpillThreshold = 0
	plainOpts.SpillDir = ""
	it2, err := OpenConjunct(g, ont, c, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, it2, 10000)
	if len(as) != len(want) {
		t.Fatalf("spilled run found %d answers, unspilled %d", len(as), len(want))
	}
	for i := range as {
		if as[i] != want[i] {
			t.Fatalf("answer %d diverged under spilling: %+v vs %+v", i, as[i], want[i])
		}
	}
}
