package dstruct

import (
	"math/rand"
	"testing"

	"omega/internal/graph"
)

func TestDeferredFIFOWithinBucket(t *testing.T) {
	df := NewDeferred(false)
	for i := 0; i < 6; i++ {
		df.Add(tup(i, i, 0, 3, i%2 == 0))
	}
	df.Add(tup(9, 9, 0, 7, false))
	if df.Len() != 7 {
		t.Fatalf("Len = %d, want 7", df.Len())
	}
	var got []Tuple
	df.Drain(3, func(x Tuple) { got = append(got, x) })
	if len(got) != 6 {
		t.Fatalf("Drain(3) yielded %d tuples, want 6", len(got))
	}
	// Final tuples first (they pop first from D_R, so they are inserted
	// first), then non-final; generation order within each class.
	want := []graph.NodeID{0, 2, 4, 1, 3, 5}
	for i, x := range got {
		if x.V != want[i] {
			t.Fatalf("drain order = %v at %d, want V=%d (finals FIFO, then non-finals FIFO)", x.V, i, want[i])
		}
	}
	if df.Len() != 1 {
		t.Fatalf("Len after drain = %d, want 1", df.Len())
	}
	if md, ok := df.MinDistance(); !ok || md != 7 {
		t.Fatalf("MinDistance = %d,%v; want 7,true", md, ok)
	}
}

func TestDeferredDrainAscendingBuckets(t *testing.T) {
	df := NewDeferred(false)
	for _, d := range []int{5, 1, 9, 1, 5, 2} {
		df.Add(tup(d, d, 0, d, false))
	}
	last := int32(-1)
	df.Drain(9, func(x Tuple) {
		if x.D < last {
			t.Fatalf("drain emitted distance %d after %d", x.D, last)
		}
		last = x.D
	})
	if df.Len() != 0 {
		t.Fatalf("Len after full drain = %d", df.Len())
	}
	if _, ok := df.MinDistance(); ok {
		t.Fatal("MinDistance on empty frontier reported a value")
	}
}

func TestDeferredDrainBound(t *testing.T) {
	df := NewDeferred(false)
	for d := 0; d < 10; d++ {
		df.Add(tup(d, d, 0, d, false))
	}
	n := 0
	df.Drain(4, func(x Tuple) {
		if x.D > 4 {
			t.Fatalf("Drain(4) emitted distance %d", x.D)
		}
		n++
	})
	if n != 5 || df.Len() != 5 {
		t.Fatalf("Drain(4): emitted %d, remaining %d; want 5, 5", n, df.Len())
	}
	if md, ok := df.MinDistance(); !ok || md != 5 {
		t.Fatalf("MinDistance = %d,%v; want 5,true", md, ok)
	}
}

func TestDeferredOverflowDistances(t *testing.T) {
	df := NewDeferred(false)
	huge := int32(maxBucketDist + 100)
	df.Add(Tuple{V: 1, N: 1, D: huge})
	df.Add(Tuple{V: 2, N: 2, D: 3})
	if md, ok := df.MinDistance(); !ok || md != 3 {
		t.Fatalf("MinDistance = %d,%v; want 3,true", md, ok)
	}
	var got []Tuple
	df.Drain(3, func(x Tuple) { got = append(got, x) })
	if len(got) != 1 || got[0].D != 3 {
		t.Fatalf("Drain(3) = %+v, want the in-range tuple only", got)
	}
	if md, ok := df.MinDistance(); !ok || md != huge {
		t.Fatalf("MinDistance after drain = %d,%v; want %d,true", md, ok, huge)
	}
	got = nil
	df.Drain(huge, func(x Tuple) { got = append(got, x) })
	if len(got) != 1 || got[0].D != huge {
		t.Fatalf("overflow drain = %+v", got)
	}
	if df.Len() != 0 {
		t.Fatalf("Len = %d after draining everything", df.Len())
	}
}

// Property: injecting a deferred frontier into a Dict produces exactly the
// pop sequence of adding the same tuples one by one in generation order —
// the equivalence the incremental distance-aware mode rests on. Exercises
// both the zero-copy bucket adoption (empty Dict) and per-tuple re-adds
// (RefDict).
func TestQuickDeferredInjectMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		df := NewDeferred(false)
		replay := NewDict()
		var gen []Tuple
		for i := 0; i < 200; i++ {
			tt := tup(i, i, rng.Intn(3), rng.Intn(10), rng.Intn(3) == 0)
			gen = append(gen, tt)
			df.Add(tt)
		}
		for _, tt := range gen {
			replay.Add(tt)
		}
		var target TupleDict = NewDict()
		if rng.Intn(3) == 0 {
			target = NewRefDict()
		}
		if n := target.Inject(df, 9); n != 200 {
			t.Fatalf("Inject admitted %d tuples, want 200", n)
		}
		if df.Len() != 0 {
			t.Fatalf("frontier holds %d tuples after full inject", df.Len())
		}
		for i := 0; i < 200; i++ {
			a, ok1 := target.Remove()
			b, ok2 := replay.Remove()
			if !ok1 || !ok2 {
				t.Fatalf("pop %d: availability %v vs %v", i, ok1, ok2)
			}
			if a != b {
				t.Fatalf("trial %d pop %d diverged: inject %+v, replay %+v", trial, i, a, b)
			}
		}
	}
}

// Property: interleaved Add/Drain preserves per-class generation order and
// never loses or duplicates a tuple.
func TestQuickDeferredGenerationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		df := NewDeferred(false)
		type class struct {
			d     int32
			final bool
		}
		seq := make(map[class][]graph.NodeID)
		added, drained := 0, 0
		nextV := graph.NodeID(0)
		psi := int32(-1)
		for op := 0; op < 300; op++ {
			if rng.Intn(4) != 0 {
				d := int32(rng.Intn(12))
				if d <= psi { // deferral only ever parks distances beyond ψ
					continue
				}
				f := rng.Intn(4) == 0
				df.Add(Tuple{V: nextV, N: nextV, D: d, Final: f})
				seq[class{d, f}] = append(seq[class{d, f}], nextV)
				nextV++
				added++
			} else {
				psi += int32(rng.Intn(3))
				df.Drain(psi, func(x Tuple) {
					k := class{x.D, x.Final}
					if len(seq[k]) == 0 || x.V != seq[k][0] {
						t.Fatalf("class %+v emitted V=%d out of generation order", k, x.V)
					}
					seq[k] = seq[k][1:]
					drained++
				})
			}
		}
		df.Drain(1<<20, func(Tuple) { drained++ })
		if drained != added {
			t.Fatalf("added %d tuples, drained %d", added, drained)
		}
	}
}
