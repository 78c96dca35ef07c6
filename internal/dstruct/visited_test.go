package dstruct

import (
	"math"
	"math/rand"
	"testing"

	"omega/internal/graph"
)

// FuzzVisited replays an op stream of Add/Contains/Reset against a map and
// requires the hash table and the seed bitmap to agree with it after every op.
// Ops are byte pairs (kind, key); the key byte spreads over (v, n, s) so 256
// distinct triples exist, enough to force several rehashes, and n strides by
// 97 so the bitmap's triples fall on many pages. Each v is one of eight
// seeds, whose ordinals differ from their node IDs. The table starts three
// resets short of generation wrap-around, and one op kind jumps it back there
// (standing in for the 2³² resets a real table would need), so streams cross
// the wrap with slots of old generations — low and high — still in the table.
// A reset reshapes the bitmap for one of two searches, as a pooled bundle is
// reshaped for each tenant: the seeds in another order over a wider node
// range, or back again.
func FuzzVisited(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 9, 1, 13, 0, 9, 1, 0, 1})
	f.Add([]byte{0, 7, 13, 0, 13, 0, 13, 0, 9, 7, 0, 7, 13, 0, 9, 7})
	f.Add([]byte{0, 200, 0, 9, 14, 0, 9, 200, 0, 63, 15, 0, 9, 63, 0, 255, 9, 255})
	shapes := []struct {
		seeds []graph.NodeID
		nodes int
	}{
		{[]graph.NodeID{3, 1, 4, 0, 5, 2, 7, 6}, 7*97 + 1},
		{[]graph.NodeID{6, 7, 2, 5, 0, 4, 1, 3}, 1500},
	}
	const states = 4
	f.Fuzz(func(t *testing.T, ops []byte) {
		vs := NewVisited()
		vs.gen = math.MaxUint32 - 2
		var sv SeedVisited
		sv.Reset(shapes[0].seeds, shapes[0].nodes, states)
		type key struct {
			v, n graph.NodeID
			s    int32
		}
		keyOf := func(b byte) key { return key{graph.NodeID(b & 7), graph.NodeID(b>>3&7) * 97, int32(b >> 6)} }
		want := map[key]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := keyOf(ops[i+1])
			switch kind := ops[i] % 16; {
			case kind < 9:
				if got := vs.Add(k.v, k.n, k.s); got == want[k] {
					t.Fatalf("op %d: Add(%v) = %v with the key stored=%v", i/2, k, got, want[k])
				}
				if got := sv.Add(k.v, k.n, k.s); got == want[k] {
					t.Fatalf("op %d: bitmap Add(%v) = %v with the key stored=%v", i/2, k, got, want[k])
				}
				want[k] = true
			case kind < 13:
				if got := vs.Contains(k.v, k.n, k.s); got != want[k] {
					t.Fatalf("op %d: Contains(%v) = %v, want %v", i/2, k, got, want[k])
				}
				if got := sv.Contains(k.v, k.n, k.s); got != want[k] {
					t.Fatalf("op %d: bitmap Contains(%v) = %v, want %v", i/2, k, got, want[k])
				}
			case kind < 15:
				vs.Reset(0)
				sh := shapes[kind-13]
				sv.Reset(sh.seeds, sh.nodes, states)
				clear(want)
			default:
				vs.Reset(0)
				vs.gen = math.MaxUint32
				sv.Reset(shapes[0].seeds, shapes[0].nodes, states)
				clear(want)
			}
			if vs.gen == 0 {
				t.Fatalf("op %d: table is at generation 0, which marks empty slots", i/2)
			}
			if vs.Len() != len(want) || sv.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, bitmap %d, want %d", i/2, vs.Len(), sv.Len(), len(want))
			}
		}
		for b := 0; b < 256; b++ {
			k := keyOf(byte(b))
			if got := vs.Contains(k.v, k.n, k.s); got != want[k] {
				t.Fatalf("final sweep: Contains(%v) = %v, want %v", k, got, want[k])
			}
			if got := sv.Contains(k.v, k.n, k.s); got != want[k] {
				t.Fatalf("final sweep: bitmap Contains(%v) = %v, want %v", k, got, want[k])
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

// TestStateMemoMatchesMap replays random Set/Get streams on one StateMemo
// against a map, resetting it between streams to node counts that grow and
// shrink, as a pooled bundle is reshaped for each tenant: every value reads
// back, a reset memo reads zero everywhere, and its directory stays sized to
// the most pages a round touched, not to the nodes × states span.
func TestStateMemoMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m StateMemo
	maxPages := 0
	for round := 0; round < 40; round++ {
		nodes := 1 + rng.Intn(1<<uint(4+rng.Intn(14)))
		states := int32(1 + rng.Intn(6))
		m.Reset(nodes)
		want := map[[2]int32]uint8{}
		for op := 0; op < 2000; op++ {
			n, s := graph.NodeID(rng.Intn(nodes)), int32(rng.Intn(int(states)))
			k := [2]int32{int32(n), s}
			if rng.Intn(2) == 0 {
				v := uint8(rng.Intn(4))
				m.Set(n, s, v)
				want[k] = v
			} else if got := m.Get(n, s); got != want[k] {
				t.Fatalf("round %d op %d: Get(%d, %d) = %d, want %d", round, op, n, s, got, want[k])
			}
		}
		for k, v := range want {
			if got := m.Get(graph.NodeID(k[0]), k[1]); got != v {
				t.Fatalf("round %d: Get(%d, %d) = %d, want %d", round, k[0], k[1], got, v)
			}
		}
		maxPages = max(maxPages, len(m.touched))
		if len(m.dir) > max(memoMinDir, 4*maxPages) {
			t.Fatalf("round %d: directory of %d slots, at most %d pages touched in any round", round, len(m.dir), maxPages)
		}
	}
	m.Reset(1 << 20)
	for n := graph.NodeID(0); n < 1<<20; n += 4093 {
		if got := m.Get(n, 3); got != 0 {
			t.Fatalf("after Reset: Get(%d, 3) = %d, want 0", n, got)
		}
	}
}
