package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	opts.DistanceAware = true
	incIt, err := OpenConjunct(g, ont, c, opts)
	if err != nil {
		t.Fatalf("trial %d %s: incremental OpenConjunct: %v", trial, c, err)
	}
	resIt, err := openRestart(g, ont, c, opts)
	if err != nil {
		t.Fatalf("trial %d %s: openRestart: %v", trial, c, err)
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
	if is.Phases > rs.Phases {
		t.Fatalf("trial %d %s: incremental ran %d phases, restart %d — skipping and folding can only reduce them",
			trial, c, is.Phases, rs.Phases)
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
			MaxPsi:    []int32{0, 1, 2, 3, 5, 1 << 20}[rng.Intn(6)],
			BatchSize: randBatchSize(rng, 1, 7, 100),
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

	res, err := openRestart(g, ont, c, Options{DistanceAware: true, MaxPsi: 3})
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
	// The restart reference parks too, in each phase's fresh evaluator, but
	// resumes none of them: it re-admits nothing.
	if rs.Reinjected != 0 {
		t.Fatalf("restart reference reports Reinjected=%d, want 0", rs.Reinjected)
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
	// Deferred and Reinjected count entries: a continuation parks as one for
	// its whole run of same-cost transitions, and a wildcard continuation
	// parks unpositioned even when every successor is visited by the time it
	// pops, where it is dropped uncounted. A wildcard run's successors that
	// cannot answer at its distance are yielded by one lifted continuation
	// a step higher: it parks once where they parked as part of their
	// run's continuation and of others, so fewer entries park (26 before the
	// lifted pass), and its pops at the last grid point make that phase count
	// (3 before).
	if is.TuplesPopped != 27 || is.Phases != 4 || is.Deferred != 24 || is.Reinjected != 24 {
		t.Fatalf("incremental stats drifted: %+v (want popped=27 phases=4 deferred=24 reinjected=24)", is)
	}
	// The restart reference runs the same four phases; its extra one
	// recomputes the first three again (69 pops over 3 phases before). Its
	// phases park 29 entries between them (none while it dropped them).
	if rs.TuplesPopped != 94 || rs.Phases != 4 || rs.Deferred != 29 {
		t.Fatalf("restart stats drifted: %+v (want popped=94 phases=4 deferred=29)", rs)
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

	rt, err := openRestart(g, ont, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rt, 1000)
	rs := rt.Stats()

	if is.Phases > rs.Phases {
		t.Fatalf("incremental ran %d phases, restart %d — skipping can only reduce them", is.Phases, rs.Phases)
	}
}

// TestParkedWildcardDroppedAtPop drives a parked wildcard continuation that
// is admitted with every successor visited. On a -p-> b, APPROX (a, p, ?X)
// with substitution cheaper than insertion and deletion parks one entry at
// distance 1: the substitution continuation from a, whose one successor, b
// in the final state, phase 0 visits. ψ = 1 admits it, and it must be dropped
// without counting a pop or a tuple operation; the phase it alone filled must
// not count.
func TestParkedWildcardDroppedAtPop(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "a", "p", "b")
	g, ont := b.Freeze(), ontology.New()
	opts := Options{
		DistanceAware: true,
		MaxPsi:        2,
		Edit:          automaton.EditCosts{Insert: 2, Delete: 2, Substitute: 1},
	}.withDefaults()
	plan, err := compileConjunct(g, ont, conj("a", "p", "?X", automaton.Approx), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			var pool *EvalPool
			if pooled {
				pool = NewEvalPool(2)
			}
			open := func() (*run, *disjunction) {
				r := new(run)
				*r = newRun(nil, opts, NewMemGauge(0), pool, nil)
				d, ok := plan.open(r, 0, BackendRanked).(*disjunction)
				if !ok {
					t.Fatal("the plan did not open the ψ-phase driver")
				}
				return r, d
			}

			// Step the branch evaluator through phases 0 and 1 by hand.
			r, d := open()
			ev := d.evals[0]
			for {
				_, ok, err := ev.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if md, _ := ev.dr.MinDistance(); md != 1 {
				t.Fatalf("nearest parked distance after phase 0 is %d, want 1", md)
			}
			popped, ops := ev.stats.TuplesPopped, r.ops
			ev.resume(1)
			if ev.stats.Reinjected != 1 || r.ops != ops+1 {
				t.Fatalf("ψ = 1 admitted %d entries in %d operations, want the one continuation", ev.stats.Reinjected, r.ops-ops)
			}
			if _, ok, err := ev.Next(); ok || err != nil {
				t.Fatalf("phase 1 ended with (%v, %v), want a drained D_R", ok, err)
			}
			if ev.stats.TuplesPopped != popped || r.ops != ops+1 {
				t.Fatalf("the dropped continuation counted: popped %d → %d, operations %d → %d",
					popped, ev.stats.TuplesPopped, ops+1, r.ops)
			}
			if md, _ := ev.dr.MinDistance(); md != 2 {
				t.Fatalf("nearest parked distance after phase 1 is %d, want 2: the continuation was not dropped", md)
			}
			d.Close()

			// Through the driver, the folded phase is not counted, and the
			// emission is the restart reference's.
			_, d = open()
			got := drain(t, d, 100)
			rt, err := openRestart(g, ont, conj("a", "p", "?X", automaton.Approx), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := drain(t, rt, 100)
			if !slices.Equal(got, want) {
				t.Fatalf("emitted %v, restart %v", got, want)
			}
			if is, rs := d.Stats(), rt.Stats(); is.Phases != 2 || rs.Phases != 3 {
				t.Fatalf("ran %d phases (restart %d), want 2 (restart 3): ψ = 1 only dropped an entry", is.Phases, rs.Phases)
			}
		})
	}
}

// TestRunParksOneContinuation drives the resumable distance-aware mode under
// the default edit costs (1/1/1), where the start state's insertion
// self-loop and its substitution share cost 1 and form one run. On
// a -p-> b -p-> c, a -q-> c, phase 0 of APPROX (a, p, ?X) expands (a, a) in
// the start state and (a, b) in the final state, and each expansion parks
// one continuation: one per transition, the start state's expansion parked
// two. The drained emission is pinned to what one continuation per
// transition emitted, which is also the restart reference's; it popped 9
// tuples and parked 10 entries. Its three phases are ψ = 0, 1 and 2: the
// successors of phase 1's wildcard runs that cannot answer at distance 1 are
// yielded by a lifted continuation at key 2, whose pops make phase 2 count
// (it was folded, popping nothing, before the lifted pass).
func TestRunParksOneContinuation(t *testing.T) {
	b := graph.NewBuilder()
	mustAdd(t, b, "a", "p", "b")
	mustAdd(t, b, "b", "p", "c")
	mustAdd(t, b, "a", "q", "c")
	g, ont := b.Freeze(), ontology.New()
	c := conj("a", "p", "?X", automaton.Approx)
	opts := Options{DistanceAware: true, MaxPsi: 3}.withDefaults()
	plan, err := compileConjunct(g, ont, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	node := func(name string) graph.NodeID {
		n, _ := g.LookupNode(name)
		return n
	}
	a := node("a")
	want := []Answer{{Src: a, Dst: node("b"), Dist: 0}, {Src: a, Dst: a, Dist: 1}, {Src: a, Dst: node("c"), Dist: 1}}
	rt, err := openRestart(g, ont, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := drain(t, rt, 100); !slices.Equal(res, want) {
		t.Fatalf("restart reference emitted %v, want %v", res, want)
	}
	for _, pooled := range []bool{false, true} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			var pool *EvalPool
			if pooled {
				pool = NewEvalPool(2)
			}
			open := func() *disjunction {
				r := new(run)
				*r = newRun(nil, opts, NewMemGauge(0), pool, nil)
				d, ok := plan.open(r, 0, BackendRanked).(*disjunction)
				if !ok {
					t.Fatal("the plan did not open the ψ-phase driver")
				}
				return d
			}

			// Step phase 0 by hand, then admit and count what it parked.
			d := open()
			ev := d.evals[0]
			for {
				_, ok, err := ev.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			expansions := ev.Stats().VisitedSize
			ev.dr.SetCeiling(math.MaxInt32)
			var conts, tuples int
			for e, ok := ev.dr.Remove(); ok; e, ok = ev.dr.Remove() {
				if e.IsCont() {
					conts++
				} else {
					tuples++
				}
			}
			if expansions != 2 || conts != 2 || tuples != 1 {
				t.Fatalf("phase 0 made %d expansions and parked %d continuations and %d tuples, want 2, one each, and the deletion's answer",
					expansions, conts, tuples)
			}
			d.Close()

			d = open()
			if got := drain(t, d, 100); !slices.Equal(got, want) {
				t.Fatalf("emitted %v, want %v", got, want)
			}
			if s := d.Stats(); s.TuplesPopped > 9 || s.Deferred != 7 || s.Reinjected != 7 || s.Phases != 3 {
				t.Fatalf("stats %+v, want at most 9 pops, 7 entries parked and admitted, 3 phases", s)
			}
		})
	}
}
