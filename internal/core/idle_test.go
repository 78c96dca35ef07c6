package core

import (
	"context"
	"testing"

	"omega/internal/automaton"
	"omega/internal/ontology"
)

// drainIdle runs q to exhaustion with the idle hook armed. It records the
// hook's calls and checks the bound the hook exists for: a row the caller
// holds from the moment it comes out until the next call is held for at most
// idleOps tuple operations of the execution.
func drainIdle(t *testing.T, q *Query, backend Backend) (ticks int, st Stats, p *Prepared) {
	t.Helper()
	p, err := PrepareQuery(ringGraph(t, 512), ontology.New(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ex *Execution
	var held []int // the operation count when each row still held came out
	idle := func() {
		ticks++
		for _, at := range held {
			if ex.r.ops-at > idleOps {
				t.Errorf("a row was held for %d tuple operations", ex.r.ops-at)
			}
		}
		held = held[:0]
	}
	if ex, err = p.Exec(context.Background(), ExecOptions{Backend: backend, Idle: idle}); err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		held = append(held, ex.r.ops)
	}
	return ticks, ex.Stats(), p
}

// TestIdleTicks pins when a serial execution calls ExecOptions.Idle: once per
// idleOps tuple operations on the ranked backend, and once before each lane
// block on the bulk backend, plus the pull that finds the scan exhausted.
func TestIdleTicks(t *testing.T) {
	ranked := &Query{Head: []string{"X"}, Conjuncts: []Conjunct{conj("n0", "p.q", "?X", automaton.Approx)}}
	ticks, st, _ := drainIdle(t, ranked, BackendAuto)
	ops := st.TuplesAdded + st.TuplesPopped
	if ticks != ops/idleOps || ticks < 2 {
		t.Errorf("ranked: %d idle calls over %d tuple operations, want ⌊ops/%d⌋ = %d (and at least 2)", ticks, ops, idleOps, ops/idleOps)
	}

	scan := &Query{Head: []string{"X", "Y"}, Conjuncts: []Conjunct{conj("?X", "p.q", "?Y", automaton.Exact)}}
	ticks, st, p := drainIdle(t, scan, BackendBulk)
	if st.Backend != "bulk" {
		t.Fatalf("the scan ran on %q", st.Backend)
	}
	if blocks := p.def.plans[0].bulkIndex(0).Blocks(); ticks != blocks+1 || blocks < 2 {
		t.Errorf("bulk: %d idle calls over %d lane blocks, want one per block plus the exhausting pull", ticks, blocks)
	}
	if st.PrepOps != 0 || st.MaxDelayOps != 0 {
		t.Errorf("bulk: a scan adds and pops nothing, yet PrepOps=%d MaxDelayOps=%d", st.PrepOps, st.MaxDelayOps)
	}
}
