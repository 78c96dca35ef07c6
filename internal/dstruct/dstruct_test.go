package dstruct

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"omega/internal/graph"
)

func tup(v, n int, s int, d int, final bool) Tuple {
	return Tuple{V: graph.NodeID(v), N: graph.NodeID(n), S: int32(s), D: int32(d), Final: final}
}

func TestDictOrdersByDistance(t *testing.T) {
	d := NewDict()
	d.Add(tup(1, 1, 0, 5, false))
	d.Add(tup(2, 2, 0, 1, false))
	d.Add(tup(3, 3, 0, 3, false))
	var got []int32
	for {
		x, ok := d.Remove()
		if !ok {
			break
		}
		got = append(got, x.D)
	}
	want := []int32{1, 3, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

func TestDictFinalFirstAtEqualDistance(t *testing.T) {
	d := NewDict()
	d.Add(tup(1, 1, 0, 2, false))
	d.Add(tup(2, 2, 0, 2, true))
	d.Add(tup(3, 3, 0, 2, false))
	d.Add(tup(4, 4, 0, 2, true))
	x, _ := d.Remove()
	y, _ := d.Remove()
	if !x.Final || !y.Final {
		t.Fatalf("final tuples not popped first: got finals %v, %v", x.Final, y.Final)
	}
	z, _ := d.Remove()
	w, _ := d.Remove()
	if z.Final || w.Final {
		t.Fatal("non-final tuples popped out of order")
	}
}

func TestDictFinalAtHigherDistanceWaits(t *testing.T) {
	d := NewDict()
	d.Add(tup(1, 1, 0, 3, true))
	d.Add(tup(2, 2, 0, 1, false))
	x, _ := d.Remove()
	if x.Final || x.D != 1 {
		t.Fatalf("popped %+v, want the non-final distance-1 tuple", x)
	}
}

func TestDictLIFOWithinKey(t *testing.T) {
	d := NewDict()
	d.Add(tup(1, 1, 0, 0, false))
	d.Add(tup(2, 2, 0, 0, false))
	x, _ := d.Remove()
	if x.V != 2 {
		t.Fatalf("popped V=%d, want 2 (LIFO within a key)", x.V)
	}
}

func TestDictRefillAfterEmpty(t *testing.T) {
	d := NewDict()
	d.Add(tup(1, 1, 0, 0, false))
	d.Remove()
	if _, ok := d.Remove(); ok {
		t.Fatal("Remove on empty dict returned a tuple")
	}
	d.Add(tup(2, 2, 0, 0, false))
	x, ok := d.Remove()
	if !ok || x.V != 2 {
		t.Fatalf("refill after empty failed: %+v %v", x, ok)
	}
}

func TestDictMinDistance(t *testing.T) {
	d := NewDict()
	if _, ok := d.MinDistance(); ok {
		t.Fatal("MinDistance on empty dict reported a value")
	}
	d.Add(tup(1, 1, 0, 4, false))
	d.Add(tup(2, 2, 0, 2, true))
	if md, ok := d.MinDistance(); !ok || md != 2 {
		t.Fatalf("MinDistance = %d,%v want 2,true", md, ok)
	}
	d.Remove()
	if md, ok := d.MinDistance(); !ok || md != 4 {
		t.Fatalf("MinDistance after pop = %d,%v want 4,true", md, ok)
	}
}

func TestDictLen(t *testing.T) {
	d := NewDict()
	for i := 0; i < 10; i++ {
		d.Add(tup(i, i, 0, i%3, false))
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d, want 10", d.Len())
	}
	d.Remove()
	if d.Len() != 9 {
		t.Fatalf("after pop Len = %d, want 9", d.Len())
	}
}

// TestDictAddPanicsOnNegativeDistance: every distance is a sum of
// non-negative costs, so D_R orders none below zero and refuses one, a plain
// tuple and a lifted continuation alike, rather than queue it anywhere.
func TestDictAddPanicsOnNegativeDistance(t *testing.T) {
	for _, tu := range []Tuple{tup(1, 1, 0, -1, false), tup(1, 1, 0, math.MinInt32, true), Cont(1, 1, -3, 0, 0).With(Lifted)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%+v) did not panic", tu)
				}
			}()
			NewDict().Add(tu)
		}()
	}
}

// TestDictLiftedPlainTuple: a plain tuple carrying Lifted stays a plain tuple
// — not a continuation, its state and flag read back — and pops after the
// final entries of its key and before the rest, on the bucket path and on the
// overflow one alike.
func TestDictLiftedPlainTuple(t *testing.T) {
	for _, d := range []int{3, maxBucketDist + 3} {
		dict := NewDict()
		dict.Add(tup(1, 1, 0, d, false))
		dict.Add(tup(2, 2, 5, d, false).With(Lifted))
		dict.Add(tup(3, 3, 0, d, true))
		for i, want := range []struct {
			v             graph.NodeID
			final, lifted bool
		}{{3, true, false}, {2, false, true}, {1, false, false}} {
			x, ok := dict.Remove()
			if !ok || x.V != want.v || x.Final != want.final || x.Has(Lifted) != want.lifted || x.IsCont() || int(x.D) != d {
				t.Fatalf("distance %d, pop %d: %+v (ok %v, lifted %v), want v %d final %v lifted %v", d, i, x, ok, x.Has(Lifted), want.v, want.final, want.lifted)
			}
			if want.lifted && x.S != 5 {
				t.Fatalf("distance %d: lifted tuple reads back state %d, want 5", d, x.S)
			}
		}
	}
}

// Property: pops come out in non-decreasing key order (distance, then final,
// lifted and the rest) no matter the interleaving of adds and removes.
func TestQuickDictMonotonePops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		d := NewDict()
		lastKey := int64(-1)
		pending := 0
		for op := 0; op < 500; op++ {
			if pending == 0 || rng.Intn(3) != 0 {
				dist := rng.Intn(8)
				tu := tup(op, op, 0, dist, rng.Intn(2) == 0)
				if !tu.Final && rng.Intn(3) == 0 {
					tu = Cont(tu.V, tu.N, tu.D, 0, int32(op)).With(Lifted)
				}
				// Monotonicity only holds for Dijkstra-style workloads where
				// inserted keys are never below the last popped key.
				k := key(tu)
				if k < lastKey {
					continue
				}
				d.Add(tu)
				pending++
			} else {
				x, ok := d.Remove()
				if !ok {
					t.Fatal("Remove failed with pending tuples")
				}
				k := key(x)
				if k < lastKey {
					t.Fatalf("pop key went backwards: %d after %d", k, lastKey)
				}
				lastKey = k
				pending--
			}
		}
	}
}

func TestVisited(t *testing.T) {
	v := NewVisited()
	if !v.Add(1, 2, 3) {
		t.Fatal("first Add returned false")
	}
	if v.Add(1, 2, 3) {
		t.Fatal("duplicate Add returned true")
	}
	if !v.Contains(1, 2, 3) {
		t.Fatal("Contains missed stored triple")
	}
	for _, trip := range [][3]int{{2, 2, 3}, {1, 3, 3}, {1, 2, 4}} {
		if v.Contains(graph.NodeID(trip[0]), graph.NodeID(trip[1]), int32(trip[2])) {
			t.Fatalf("Contains(%v) = true for unseen triple", trip)
		}
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d, want 1", v.Len())
	}
}

func TestVisitedNoKeyCollisions(t *testing.T) {
	v := NewVisited()
	v.Add(1, 2, 0)
	if v.Contains(2, 1, 0) {
		t.Fatal("(1,2) collides with (2,1)")
	}
	v.Add(0, 258, 0) // 258 = 1<<8 | 2: catches byte-level packing mistakes
	if v.Contains(1, 2, 0) != true || v.Contains(258, 0, 0) {
		t.Fatal("packing collision between (0,258) and (258,0)")
	}
}

func TestAnswersDedupe(t *testing.T) {
	a := NewAnswers()
	if !a.Add(1, 2, 0) {
		t.Fatal("first Add = false")
	}
	if a.Add(1, 2, 5) {
		t.Fatal("same pair re-added at higher distance")
	}
	if !a.Has(1, 2) {
		t.Fatal("Has missed recorded pair")
	}
	if a.Has(2, 1) {
		t.Fatal("Has(2,1) = true; pair order must matter")
	}
	if !a.Add(2, 1, 1) {
		t.Fatal("distinct pair rejected")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	list := a.List()
	if len(list) != 2 || list[0].Dist != 0 || list[1].Dist != 1 {
		t.Fatalf("List = %+v", list)
	}
}

// FuzzCont checks that a continuation Cont(v, n, d, slot, cursor), with the
// flags it carries, reads back the slot, cursor and flags it was built with,
// and is never final. With flag bit 3 set it checks a lifted plain tuple
// instead: not a continuation, its state and Lifted read back, and it pops
// between the final and the other entries of its key.
func FuzzCont(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int32(0), uint32(0), uint8(0))
	f.Add(int32(1), int32(2), int32(3), int32(4), uint32(0), uint8(1))
	f.Add(int32(-1), int32(1<<30), int32(-5), int32(0), uint32(ContSlots-1), uint8(2))
	f.Add(int32(7), int32(8), int32(math.MaxInt32), int32(maxBucketDist), uint32(1<<31), uint8(3))
	// The cursor a parked wildcard continuation waits with until its pop
	// positions it: MaxInt32, past the end of every neighbour segment, here
	// with a parked distance, the top slot and the flags a lifted second pass
	// is created with.
	f.Add(int32(3), int32(4), int32(math.MaxInt32), int32(2), uint32(ContSlots-1), uint8(6))
	f.Add(int32(3), int32(4), int32(17), int32(2), uint32(ContSlots-1), uint8(7))
	// A plain tuple lifted a step above its distance, in a bucket and in the
	// overflow range.
	f.Add(int32(3), int32(4), int32(2), int32(1), uint32(0), uint8(8))
	f.Add(int32(3), int32(4), int32(2), int32(maxBucketDist+1), uint32(0), uint8(8))
	f.Fuzz(func(t *testing.T, v, n, s, d int32, slot uint32, flags uint8) {
		if flags&8 != 0 {
			fuzzLiftedTuple(t, graph.NodeID(v), graph.NodeID(n), s&math.MaxInt32, d&math.MaxInt32)
			return
		}
		sl, cur := int32(slot%ContSlots), s&math.MaxInt32
		c := Cont(graph.NodeID(v), graph.NodeID(n), d, sl, cur)
		skipped, lifted, walk := flags&1 != 0, flags&2 != 0, flags&4 != 0
		if skipped {
			c = c.With(Skipped)
		}
		if lifted {
			c = c.With(Lifted)
		}
		if walk {
			c = c.With(Walk)
		}
		if !c.IsCont() || c.Final || c.Slot() != sl || c.Cursor() != cur || c.D != d ||
			c.Has(Skipped) != skipped || c.Has(Lifted) != lifted || c.Has(Walk) != walk {
			t.Fatalf("Cont(%d, %d, %d, %d, %d) with flags %03b = %+v: slot %d, cursor %d, skipped %v, lifted %v, walk %v",
				v, n, d, sl, cur, flags&7, c, c.Slot(), c.Cursor(), c.Has(Skipped), c.Has(Lifted), c.Has(Walk))
		}
	})
}

// fuzzLiftedTuple checks a plain tuple (v, n, s, d) carrying Lifted, s and d
// non-negative: it reads back as a lifted plain tuple, and D_R pops it after
// a final entry and before a plain one of the same key.
func fuzzLiftedTuple(t *testing.T, v, n graph.NodeID, s, d int32) {
	l := Tuple{V: v, N: n, S: s, D: d}.With(Lifted)
	if l.IsCont() || l.Final || !l.Has(Lifted) || l.Has(Skipped) || l.Has(Walk) || l.S != s || l.D != d {
		t.Fatalf("lifted tuple (%d, %d, %d, %d) = %+v: cont %v, lifted %v", v, n, s, d, l, l.IsCont(), l.Has(Lifted))
	}
	dict := NewDict()
	dict.Add(Tuple{V: v, N: n, S: s, D: d})
	dict.Add(l)
	dict.Add(Tuple{V: v, N: n, S: s, D: d, Final: true})
	for i, final := range []bool{true, false, false} {
		x, ok := dict.Remove()
		if !ok || x.Final != final || x.Has(Lifted) != (i == 1) || x.IsCont() || x.S != s || x.D != d {
			t.Fatalf("distance %d, pop %d: %+v (ok %v, lifted %v)", d, i, x, ok, x.Has(Lifted))
		}
	}
}

// TestTupleSize pins every per-entry size the accounting assumes against the
// type it stands for.
func TestTupleSize(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"tupleMem (Tuple)", unsafe.Sizeof(Tuple{}), tupleMem},
		{"entryMem (entry)", unsafe.Sizeof(entry{}), entryMem},
		{"bucketMem (bucket)", unsafe.Sizeof(bucket{}), bucketMem},
		{"visEntryMem (visEntry)", unsafe.Sizeof(visEntry{}), visEntryMem},
		{"answerMem (Answer)", unsafe.Sizeof(Answer{}), answerMem},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: the type is %d bytes, the accounting says %d", tc.name, tc.got, tc.want)
		}
	}
}

func BenchmarkDictAddRemove(b *testing.B) {
	d := NewDict()
	for i := 0; i < b.N; i++ {
		d.Add(tup(i, i, 0, i%16, i%5 == 0))
		if i%2 == 1 {
			d.Remove()
		}
	}
}

func BenchmarkVisitedAdd(b *testing.B) {
	v := NewVisited()
	for i := 0; i < b.N; i++ {
		v.Add(graph.NodeID(i%100000), graph.NodeID(i%777), int32(i%13))
	}
}
