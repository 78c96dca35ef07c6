package core

import (
	"context"
	"math/rand"
	"testing"

	"omega/internal/automaton"
	"omega/internal/dstruct"
	"omega/internal/graph"
)

// TestEvalPoolMatchesFresh fuzzes pooled executions against fresh ones: one
// EvalPool is shared across every trial (so state really is recycled between
// graphs, modes and option sets) and each pooled run must emit the ranked
// sequence of a fresh run byte-identically, including the incremental
// distance-aware and disjunction drivers.
func TestEvalPoolMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	ont := testOnt()
	pool := NewEvalPool(8)
	res := []string{"p", "p.q", "p|q", "p.q-", "p*", "(p|q).r", "p|q|r"}
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, ont)
		mode := []automaton.Mode{automaton.Exact, automaton.Approx, automaton.Relax, automaton.Flex}[rng.Intn(4)]
		c := conj([]string{"?X", "n0", "C1"}[rng.Intn(3)], res[rng.Intn(len(res))], []string{"?Y", "n2"}[rng.Intn(2)], mode)
		if !c.Subject.IsVar && !c.Object.IsVar {
			continue
		}
		q := &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}
		opts := Options{
			DistanceAware: rng.Intn(2) == 0,
			Disjunction:   rng.Intn(2) == 0,
			MaxPsi:        []int32{0, 2, 1 << 20}[rng.Intn(3)],
			RareSide:      rng.Intn(4) == 0,
			Rewrite:       rng.Intn(4) == 0,
		}

		p, err := PrepareQuery(g, ont, q, opts)
		if err != nil {
			t.Fatalf("trial %d: PrepareQuery: %v", trial, err)
		}
		fresh, err := p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatalf("trial %d: fresh Exec: %v", trial, err)
		}
		want := drainExec(t, fresh, 1<<20)

		for rep := 0; rep < 2; rep++ {
			ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
			if err != nil {
				t.Fatalf("trial %d rep %d: pooled Exec: %v", trial, rep, err)
			}
			got := drainExec(t, ex, 1<<20)
			if len(got) != len(want) {
				t.Fatalf("trial %d rep %d (%s opts=%+v): pooled emitted %d answers, fresh %d",
					trial, rep, c, opts, len(got), len(want))
			}
			for i := range got {
				if !sameQueryAnswer(got[i], want[i]) {
					t.Fatalf("trial %d rep %d (%s): answer %d diverged: pooled %+v, fresh %+v",
						trial, rep, c, i, got[i], want[i])
				}
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("trial %d: Close: %v", trial, err)
			}
		}
	}
	s := pool.Stats()
	if s.Gets == 0 || s.Reuses == 0 {
		t.Fatalf("pool never engaged: %+v", s)
	}
	if s.Puts != s.Gets {
		t.Fatalf("pool leak: %d gets, %d puts", s.Gets, s.Puts)
	}
}

// TestEvalPoolRecycles pins the recycling behaviour: with a pool, the second
// execution's state bundle is the first one's, reset — observed through the
// pool counters and through a steady-state allocation check.
func TestEvalPoolRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Approx)}}
	p, err := PrepareQuery(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(2)
	for i := 0; i < 5; i++ {
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		drainExec(t, ex, 1<<20)
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := pool.Stats()
	if s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1 (a single bundle serves every sequential exec)", s.Misses)
	}
	if s.Reuses != 4 {
		t.Fatalf("Reuses = %d, want 4", s.Reuses)
	}
	if s.Idle != 1 {
		t.Fatalf("Idle = %d, want 1", s.Idle)
	}
}

// TestEvalPoolAbandonedExecReturnsState: a pooled execution abandoned
// mid-stream (Close before exhaustion) must still hand its bundle back.
func TestEvalPoolAbandonedExecReturnsState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p|q|r", "?Y", automaton.Approx)}}
	p, err := PrepareQuery(g, ont, q, Options{DistanceAware: true})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(4)
	for i := 0; i < 3; i++ {
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ex.Next(); err != nil {
			t.Fatal(err)
		}
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := pool.Stats()
	if s.Puts != s.Gets {
		t.Fatalf("abandoned executions leaked state: %d gets, %d puts", s.Gets, s.Puts)
	}
}

// TestEvalPoolBypassedForSpillAndRefDict: configurations whose state is not
// recyclable must run correctly with a pool set — and never touch it.
func TestEvalPoolBypassedForSpillAndRefDict(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Approx)}}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"spill", Options{SpillThreshold: 4, SpillDir: t.TempDir()}},
		{"refdict", Options{RefDict: true}},
	} {
		p, err := PrepareQuery(g, ont, q, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantSeq := drainExec(t, want, 1<<20)

		pool := NewEvalPool(4)
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatalf("%s: pooled Exec: %v", tc.name, err)
		}
		got := drainExec(t, ex, 1<<20)
		if len(got) != len(wantSeq) {
			t.Fatalf("%s: %d answers with pool set, %d without", tc.name, len(got), len(wantSeq))
		}
		if s := pool.Stats(); s.Gets != 0 {
			t.Fatalf("%s: pool engaged for non-recyclable state: %+v", tc.name, s)
		}
	}
}

// TestEvalPoolOversizedBundleDiscarded pins the byte cap: a bundle whose
// reset footprint exceeds SetBundleCapBytes must be dropped instead of
// recycled (counted under both Discarded and Oversized), so one giant query
// cannot permanently pin its high-water memory in a pooled slot. Lifting the
// cap restores recycling.
func TestEvalPoolOversizedBundleDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ont := testOnt()
	g := randomGraph(rng, ont)
	q := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Approx)}}
	p, err := PrepareQuery(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewEvalPool(4)
	pool.SetBundleCapBytes(1) // any real bundle exceeds this

	run := func() {
		t.Helper()
		ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		drainExec(t, ex, 1<<20)
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
	}

	run()
	s := pool.Stats()
	if s.Oversized != 1 || s.Discarded != 1 {
		t.Fatalf("Oversized = %d, Discarded = %d, want 1, 1", s.Oversized, s.Discarded)
	}
	if s.Idle != 0 {
		t.Fatalf("Idle = %d after oversized discard, want 0", s.Idle)
	}

	// Nothing was retained, so the next execution allocates fresh again.
	run()
	if s = pool.Stats(); s.Misses != 2 {
		t.Fatalf("Misses = %d, want 2 (oversized bundle must not be reused)", s.Misses)
	}

	// With the cap disabled the same workload's bundle is retained once more.
	pool.SetBundleCapBytes(-1)
	run()
	if s = pool.Stats(); s.Idle != 1 {
		t.Fatalf("Idle = %d after cap disabled, want 1", s.Idle)
	}
	if s.Oversized != 2 {
		t.Fatalf("Oversized = %d, want 2 (only the capped puts count)", s.Oversized)
	}
}

// TestEvalPoolWarmCycleAllocatesNothing: handing a used bundle to the next
// tenant — get, which resets it, and put, which measures it — allocates
// nothing, whatever the bundle holds; IdleBytes follows it on and off the
// free list.
func TestEvalPoolWarmCycleAllocatesNothing(t *testing.T) {
	pool := NewEvalPool(2)
	st := pool.get(false)
	for i := 0; i < 5000; i++ {
		st.dict.Add(dstruct.Tuple{V: graph.NodeID(i), N: graph.NodeID(i), D: int32(i % 7)})
		st.visited.Add(graph.NodeID(i), graph.NodeID(i), 0)
		st.answers.Add(graph.NodeID(i), graph.NodeID(i), 0)
		st.deferred.Add(dstruct.Tuple{V: graph.NodeID(i), N: graph.NodeID(i), D: int32(i % 5)})
	}
	held := st.bytes()
	pool.put(st)
	if s := pool.Stats(); s.Idle != 1 || s.IdleBytes != held {
		t.Fatalf("after put: Idle=%d IdleBytes=%d, want 1 and %d", s.Idle, s.IdleBytes, held)
	}
	allocs := testing.AllocsPerRun(100, func() {
		st := pool.get(false)
		st.visited.Add(1, 2, 3)
		st.answers.Add(1, 2, 0)
		pool.put(st)
	})
	if allocs != 0 {
		t.Fatalf("warm get/put cycle allocates %.0f times, want 0", allocs)
	}
	got := pool.get(false)
	if s := pool.Stats(); s.Idle != 0 || s.IdleBytes != 0 {
		t.Fatalf("after get: Idle=%d IdleBytes=%d, want 0/0", s.Idle, s.IdleBytes)
	}
	if got.visited.Len() != 0 || got.answers.Len() != 0 || got.dict.Len() != 0 || got.deferred.Len() != 0 {
		t.Fatal("get handed out a bundle that still holds its previous tenant's entries")
	}
	if got.bytes() != held {
		t.Fatalf("reset changed the bundle's capacity: %d bytes, was %d", got.bytes(), held)
	}
}
