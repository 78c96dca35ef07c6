package dstruct

import (
	"math"
	"testing"

	"omega/internal/graph"
)

// FuzzVisited replays an op stream of Add/Contains/Reset against a map and
// requires the table to agree after every op. Ops are byte pairs (kind, key);
// the key byte spreads over (v, n, s) so 256 distinct triples exist, enough to
// force several rehashes. The table starts three resets short of generation
// wrap-around, and one op kind jumps it back there (standing in for the 2³²
// resets a real table would need), so streams cross the wrap with slots of
// old generations — low and high — still in the table.
func FuzzVisited(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 9, 1, 13, 0, 9, 1, 0, 1})
	f.Add([]byte{0, 7, 13, 0, 13, 0, 13, 0, 9, 7, 0, 7, 13, 0, 9, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		vs := NewVisited()
		vs.gen = math.MaxUint32 - 2
		type key struct {
			v, n graph.NodeID
			s    int32
		}
		keyOf := func(b byte) key { return key{graph.NodeID(b & 7), graph.NodeID(b >> 3 & 7), int32(b >> 6)} }
		want := map[key]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := keyOf(ops[i+1])
			switch kind := ops[i] % 16; {
			case kind < 9:
				if got := vs.Add(k.v, k.n, k.s); got == want[k] {
					t.Fatalf("op %d: Add(%v) = %v with the key stored=%v", i/2, k, got, want[k])
				}
				want[k] = true
			case kind < 13:
				if got := vs.Contains(k.v, k.n, k.s); got != want[k] {
					t.Fatalf("op %d: Contains(%v) = %v, want %v", i/2, k, got, want[k])
				}
			case kind < 15:
				vs.Reset(0)
				clear(want)
			default:
				vs.Reset(0)
				vs.gen = math.MaxUint32
				clear(want)
			}
			if vs.gen == 0 {
				t.Fatalf("op %d: table is at generation 0, which marks empty slots", i/2)
			}
			if vs.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, want %d", i/2, vs.Len(), len(want))
			}
		}
		for b := 0; b < 256; b++ {
			k := keyOf(byte(b))
			if got := vs.Contains(k.v, k.n, k.s); got != want[k] {
				t.Fatalf("final sweep: Contains(%v) = %v, want %v", k, got, want[k])
			}
		}
	})
}

// TestVisitedSmallTenantAfterLarge: a table filled to 200k entries, reset and
// given 30 holds exactly those 30 — every old key reads as absent although its
// slot was never cleared — and kept the capacity the large tenant grew.
func TestVisitedSmallTenantAfterLarge(t *testing.T) {
	const big, small = 200_000, 30
	vs := NewVisited()
	for i := 0; i < big; i++ {
		vs.Add(graph.NodeID(i), graph.NodeID(i/7), int32(i%5))
	}
	grown := len(vs.entries)
	if 3*grown > 8*big {
		t.Fatalf("%d slots for %d entries: capacity over 8/3 of the population", grown, big)
	}
	vs.Reset(0)
	// The new tenant re-adds every 1000th old key plus keys of its own.
	for i := 0; i < small; i++ {
		if i%2 == 0 {
			j := i * 1000
			vs.Add(graph.NodeID(j), graph.NodeID(j/7), int32(j%5))
		} else {
			vs.Add(graph.NodeID(-i), 0, 0)
		}
	}
	if vs.Len() != small {
		t.Fatalf("Len = %d, want %d", vs.Len(), small)
	}
	if len(vs.entries) != grown {
		t.Fatalf("Reset changed the capacity: %d slots, was %d", len(vs.entries), grown)
	}
	for i := 0; i < big; i++ {
		want := i%2000 == 0 && i/1000 < small
		if got := vs.Contains(graph.NodeID(i), graph.NodeID(i/7), int32(i%5)); got != want {
			t.Fatalf("Contains(old key %d) = %v, want %v", i, got, want)
		}
	}
	for i := 1; i < small; i += 2 {
		if !vs.Contains(graph.NodeID(-i), 0, 0) {
			t.Fatalf("new key %d missing", -i)
		}
	}
}
