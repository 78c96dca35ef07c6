package dstruct

import (
	"math/rand"
	"testing"

	"omega/internal/graph"
)

// drainStep pops one tuple from both dictionaries and asserts they agree.
func drainStep(t *testing.T, trial, op int, d *Dict, ref *RefDict) {
	t.Helper()
	got, gok := d.Remove()
	want, wok := ref.Remove()
	if gok != wok || got != want {
		t.Fatalf("trial %d op %d: Dict popped %+v/%v, RefDict popped %+v/%v",
			trial, op, got, gok, want, wok)
	}
}

// TestDictMatchesRefDictRandomized drives the bucket-queue Dict and the
// naive reference dictionary through identical randomized Add/Remove
// interleavings — including adds below the last popped distance, which the
// evaluator never produces but the structure must survive — and requires
// byte-identical pop sequences.
func TestDictMatchesRefDictRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		d := NewDict()
		ref := NewRefDict()
		pending := 0
		for op := 0; op < 1000; op++ {
			if pending == 0 || rng.Intn(5) < 3 {
				dist := rng.Intn(20)
				switch rng.Intn(12) {
				case 0:
					dist = -1 - rng.Intn(5) // negative: overflow path
				case 1:
					dist = maxBucketDist + rng.Intn(100) // huge: overflow path
				}
				tu := tup(op, rng.Intn(50), rng.Intn(4), dist, rng.Intn(2) == 0)
				d.Add(tu)
				ref.Add(tu)
				pending++
			} else {
				drainStep(t, trial, op, d, ref)
				pending--
			}
			if md, ok := d.MinDistance(); true {
				rmd, rok := ref.MinDistance()
				if ok != rok || md != rmd {
					t.Fatalf("trial %d op %d: MinDistance %d/%v vs ref %d/%v",
						trial, op, md, ok, rmd, rok)
				}
			}
			if d.Len() != ref.Len() {
				t.Fatalf("trial %d op %d: Len %d vs ref %d", trial, op, d.Len(), ref.Len())
			}
		}
		for pending > 0 {
			drainStep(t, trial, -1, d, ref)
			pending--
		}
		if _, ok := d.Remove(); ok {
			t.Fatalf("trial %d: Dict not empty after drain", trial)
		}
	}
}

// TestDictSameDistanceChurn is the regression test for the ordering contract
// under repeated Add/Remove at one distance. The original map+heap dictionary
// left empty lists and pushed a duplicate heap key on every refill of the
// same distance; the contract — LIFO within a key, final before non-final,
// correct MinDistance — must survive thousands of such cycles.
func TestDictSameDistanceChurn(t *testing.T) {
	d := NewDict()
	for cycle := 0; cycle < 5000; cycle++ {
		d.Add(tup(cycle, cycle, 0, 7, false))
		x, ok := d.Remove()
		if !ok || x.V != graph.NodeID(cycle) || x.D != 7 {
			t.Fatalf("cycle %d: popped %+v/%v", cycle, x, ok)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after balanced churn", d.Len())
	}
	// After the churn the dictionary must still order fresh keys correctly.
	d.Add(tup(1, 1, 0, 9, false))
	d.Add(tup(2, 2, 0, 7, true))
	d.Add(tup(3, 3, 0, 7, false))
	if md, ok := d.MinDistance(); !ok || md != 7 {
		t.Fatalf("MinDistance after churn = %d/%v, want 7", md, ok)
	}
	order := []struct {
		v     graph.NodeID
		final bool
	}{{2, true}, {3, false}, {1, false}}
	for i, want := range order {
		x, ok := d.Remove()
		if !ok || x.V != want.v || x.Final != want.final {
			t.Fatalf("post-churn pop %d = %+v/%v, want V=%d final=%v", i, x, ok, want.v, want.final)
		}
	}
}

// TestVisitedMatchesMapRandomized checks the open-addressed visited set
// against a Go map model across random insert/lookup mixes, forcing several
// rehash cycles.
func TestVisitedMatchesMapRandomized(t *testing.T) {
	type triple struct {
		v, n graph.NodeID
		s    int32
	}
	rng := rand.New(rand.NewSource(7))
	vs := NewVisited()
	model := map[triple]struct{}{}
	for op := 0; op < 20000; op++ {
		tr := triple{graph.NodeID(rng.Intn(2000)), graph.NodeID(rng.Intn(2000)), int32(rng.Intn(6))}
		_, dup := model[tr]
		if got := vs.Contains(tr.v, tr.n, tr.s); got != dup {
			t.Fatalf("op %d: Contains(%v) = %v, model says %v", op, tr, got, dup)
		}
		if added := vs.Add(tr.v, tr.n, tr.s); added == dup {
			t.Fatalf("op %d: Add(%v) = %v, model had it: %v", op, tr, added, dup)
		}
		model[tr] = struct{}{}
		if vs.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", op, vs.Len(), len(model))
		}
	}
}

// TestAnswersMatchesMapRandomized checks the open-addressed answer registry
// against a Go map model, including growth well past the initial table.
func TestAnswersMatchesMapRandomized(t *testing.T) {
	type pair struct{ v, n graph.NodeID }
	rng := rand.New(rand.NewSource(11))
	a := NewAnswers()
	model := map[pair]int32{}
	var order []Answer
	for op := 0; op < 20000; op++ {
		p := pair{graph.NodeID(rng.Intn(1500)), graph.NodeID(rng.Intn(1500))}
		d := int32(rng.Intn(10))
		_, dup := model[p]
		if has := a.Has(p.v, p.n); has != dup {
			t.Fatalf("op %d: Has(%v) = %v, model %v", op, p, has, dup)
		}
		if added := a.Add(p.v, p.n, d); added == dup {
			t.Fatalf("op %d: Add(%v) = %v, model had it: %v", op, p, added, dup)
		}
		if !dup {
			model[p] = d
			order = append(order, Answer{Src: p.v, Dst: p.n, Dist: d})
		}
	}
	if a.Len() != len(order) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(order))
	}
	for i, want := range order {
		if a.List()[i] != want {
			t.Fatalf("List[%d] = %+v, want %+v", i, a.List()[i], want)
		}
	}
}

// BenchmarkRefDictAddRemove is the map+heap baseline for
// BenchmarkDictAddRemove (identical workload).
func BenchmarkRefDictAddRemove(b *testing.B) {
	d := NewRefDict()
	for i := 0; i < b.N; i++ {
		d.Add(tup(i, i, 0, i%16, i%5 == 0))
		if i%2 == 1 {
			d.Remove()
		}
	}
}

// BenchmarkVisitedMapAdd is the Go-map baseline for BenchmarkVisitedAdd
// (identical workload).
func BenchmarkVisitedMapAdd(b *testing.B) {
	type triple struct {
		vn uint64
		s  int32
	}
	m := map[triple]struct{}{}
	for i := 0; i < b.N; i++ {
		k := triple{pack(graph.NodeID(i%100000), graph.NodeID(i%777)), int32(i % 13)}
		if _, ok := m[k]; !ok {
			m[k] = struct{}{}
		}
	}
}
