package dstruct

import (
	"testing"
)

// The Deferred stub is kept for benchmark/layers alone; these tests pin the
// Drain contract that benchmark times.

// drained returns what Drain(psi) hands out.
func drained(df *Deferred, psi int32) []Tuple {
	var got []Tuple
	df.Drain(psi, func(x Tuple) { got = append(got, x) })
	return got
}

func TestDeferredDrainAscendingBuckets(t *testing.T) {
	df := NewDeferred(false)
	for _, d := range []int{5, 1, 9, 1, 5, 2} {
		df.Add(tup(d, d, 0, d, false))
	}
	got := drained(df, 9)
	if len(got) != 6 {
		t.Fatalf("Drain(9) yielded %d tuples, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].D < got[i-1].D {
			t.Fatalf("drain emitted distance %d after %d", got[i].D, got[i-1].D)
		}
	}
	if rest := drained(df, 1<<20); len(rest) != 0 {
		t.Fatalf("a full drain left %d tuples", len(rest))
	}
}

func TestDeferredDrainBound(t *testing.T) {
	df := NewDeferred(false)
	for d := 0; d < 10; d++ {
		df.Add(tup(d, d, 0, d, false))
	}
	got := drained(df, 4)
	if len(got) != 5 {
		t.Fatalf("Drain(4) emitted %d tuples, want 5", len(got))
	}
	for _, x := range got {
		if x.D > 4 {
			t.Fatalf("Drain(4) emitted distance %d", x.D)
		}
	}
	if rest := drained(df, 9); len(rest) != 5 {
		t.Fatalf("Drain(9) after Drain(4) emitted %d tuples, want 5", len(rest))
	}
	df.Add(tup(1, 1, 0, 3, false))
	df.Reset(false)
	if rest := drained(df, 9); len(rest) != 0 {
		t.Fatalf("Drain after Reset emitted %d tuples", len(rest))
	}
}

func TestDeferredOverflowDistances(t *testing.T) {
	df := NewDeferred(false)
	huge := int32(maxBucketDist + 100)
	df.Add(Tuple{V: 1, N: 1, D: huge})
	df.Add(Tuple{V: 2, N: 2, D: 3})
	if got := drained(df, 3); len(got) != 1 || got[0].D != 3 {
		t.Fatalf("Drain(3) = %+v, want the in-range tuple only", got)
	}
	if got := drained(df, huge); len(got) != 1 || got[0].D != huge {
		t.Fatalf("overflow drain = %+v", got)
	}
}
