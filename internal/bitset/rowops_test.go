package bitset

import (
	"math/rand"
	"testing"
)

// A naive reference for the word-parallel row kernel: a bit-at-a-time loop
// whose correctness is obvious. The randomized test below requires OrInto to
// agree with it on every seeded input.

func refOrInto(dst, src []uint64) ([]uint64, int) {
	out := append([]uint64(nil), dst...)
	added := 0
	for i := 0; i < len(out)*wordBits; i++ {
		w, m := i/wordBits, uint64(1)<<uint(i%wordBits)
		if w < len(src) && src[w]&m != 0 && out[w]&m == 0 {
			out[w] |= m
			added++
		}
	}
	return out, added
}

func randRow(rng *rand.Rand, n int) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		switch rng.Intn(4) {
		case 0: // leave zero — sparse rows are the common case in BFS
		case 1:
			row[i] = rng.Uint64()
		case 2:
			row[i] = 1 << uint(rng.Intn(wordBits)) // single bit
		case 3:
			row[i] = ^uint64(0) // saturated word
		}
	}
	return row
}

func TestOrIntoAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nd := 1 + rng.Intn(6)
		ns := 1 + rng.Intn(8) // may exceed len(dst): extra words must be ignored
		dst := randRow(rng, nd)
		src := randRow(rng, ns)
		wantRow, wantAdded := refOrInto(dst, src)
		got := append([]uint64(nil), dst...)
		added := OrInto(got, src)
		if added != wantAdded {
			t.Fatalf("trial %d: OrInto added %d, reference %d", trial, added, wantAdded)
		}
		for i := range got {
			if got[i] != wantRow[i] {
				t.Fatalf("trial %d: word %d = %#x, reference %#x", trial, i, got[i], wantRow[i])
			}
		}
	}
}

func TestBytesTracksCapacity(t *testing.T) {
	s := New(256)
	if got, want := s.Bytes(), int64(4*8+setOverheadBytes); got != want {
		t.Fatalf("New(256).Bytes() = %d, want %d", got, want)
	}
	before := s.Bytes()
	s.Add(100) // within capacity: footprint unchanged
	if s.Bytes() != before {
		t.Fatalf("Bytes changed on in-capacity Add: %d -> %d", before, s.Bytes())
	}
	s.Add(1024) // forces growth to 17 words minimum
	if s.Bytes() < int64(17*8+setOverheadBytes) {
		t.Fatalf("Bytes() = %d after growth, want >= %d", s.Bytes(), 17*8+setOverheadBytes)
	}
	// Footprint is capacity-based: clearing does not release it.
	grown := s.Bytes()
	s.Clear()
	if s.Bytes() != grown {
		t.Fatalf("Bytes() = %d after Clear, want unchanged %d", s.Bytes(), grown)
	}
}
