package dstruct

import (
	"math/rand"
	"testing"

	"omega/internal/graph"
)

// These tests pin the pooled-reuse contract: a structure that has been used
// and Reset must be observationally identical to a freshly constructed one.

func randomTuples(rng *rand.Rand, n, maxD int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{
			V:     graph.NodeID(rng.Intn(64)),
			N:     graph.NodeID(rng.Intn(64)),
			S:     int32(rng.Intn(8)),
			D:     int32(rng.Intn(maxD)),
			Final: rng.Intn(4) == 0,
		}
	}
	return out
}

// dirty runs an arbitrary workload over dd so Reset has real state to clear.
func dirty(dd *Dict, rng *rand.Rand) {
	for _, t := range randomTuples(rng, 200, 40) {
		dd.Add(t)
	}
	for i := 0; i < 90; i++ {
		dd.Remove()
	}
}

// TestDictResetBehavesFresh covers a dictionary used without a ceiling and
// one used with entries parked above a ceiling: Reset must drop both the
// entries and the ceiling.
func TestDictResetBehavesFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		ceil int32
	}{
		{"uncapped", noCeiling},
		{"capped", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			used := NewDict()
			used.SetCeiling(tc.ceil)
			dirty(used, rng)
			used.Reset(false)
			fresh := NewDict()

			if used.Len() != 0 {
				t.Fatalf("after Reset: Len=%d, want 0", used.Len())
			}
			if _, ok := used.MinDistance(); ok {
				t.Fatal("after Reset: MinDistance reports a tuple")
			}

			tuples := randomTuples(rng, 300, 50)
			for i, tp := range tuples {
				used.Add(tp)
				fresh.Add(tp)
				if i%5 == 0 {
					a, aok := used.Remove()
					b, bok := fresh.Remove()
					if a != b || aok != bok {
						t.Fatalf("pop %d: reset dict %+v/%v, fresh %+v/%v", i, a, aok, b, bok)
					}
				}
			}
			for {
				a, aok := used.Remove()
				b, bok := fresh.Remove()
				if a != b || aok != bok {
					t.Fatalf("drain: reset dict %+v/%v, fresh %+v/%v", a, aok, b, bok)
				}
				if !aok {
					break
				}
			}
		})
	}
}

func TestVisitedResetBehavesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	used := NewVisited()
	for i := 0; i < 5000; i++ {
		used.Add(graph.NodeID(rng.Intn(256)), graph.NodeID(rng.Intn(256)), int32(rng.Intn(4)))
	}
	used.Reset(0)
	fresh := NewVisited()

	if used.Len() != 0 {
		t.Fatalf("after Reset: Len=%d, want 0", used.Len())
	}
	for i := 0; i < 3000; i++ {
		v, n, s := graph.NodeID(rng.Intn(128)), graph.NodeID(rng.Intn(128)), int32(rng.Intn(4))
		if got, want := used.Add(v, n, s), fresh.Add(v, n, s); got != want {
			t.Fatalf("Add(%d,%d,%d): reset %v, fresh %v", v, n, s, got, want)
		}
		v, n, s = graph.NodeID(rng.Intn(128)), graph.NodeID(rng.Intn(128)), int32(rng.Intn(4))
		if got, want := used.Contains(v, n, s), fresh.Contains(v, n, s); got != want {
			t.Fatalf("Contains(%d,%d,%d): reset %v, fresh %v", v, n, s, got, want)
		}
	}
	if used.Len() != fresh.Len() {
		t.Fatalf("Len: reset %d, fresh %d", used.Len(), fresh.Len())
	}
}

// TestAnswersResetBehavesFresh covers both ways Reset clears the pair set: a
// table left dense by its last tenant is refilled, one left sparse (a few
// pairs in a table an earlier tenant grew) is cleared by the stored pairs.
func TestAnswersResetBehavesFresh(t *testing.T) {
	for _, tc := range []struct {
		name         string
		grow, stored int
	}{
		{"dense", 0, 2000},
		{"sparse", 2000, 40},
	} {
		rng := rand.New(rand.NewSource(13))
		used := NewAnswers()
		for i := 0; i < tc.grow; i++ {
			used.Add(graph.NodeID(rng.Intn(128)), graph.NodeID(rng.Intn(128)), int32(i))
		}
		used.Reset(0)
		var stored [][2]graph.NodeID
		for i := 0; i < tc.stored; i++ {
			v, n := graph.NodeID(rng.Intn(128)), graph.NodeID(rng.Intn(128))
			used.Add(v, n, int32(i))
			stored = append(stored, [2]graph.NodeID{v, n})
		}
		if sparse := answersSparseClear*used.Len() <= len(used.pairs.entries); sparse != (tc.name == "sparse") {
			t.Fatalf("%s: fixture holds %d pairs in %d slots", tc.name, used.Len(), len(used.pairs.entries))
		}
		used.Reset(0)
		fresh := NewAnswers()

		if used.Len() != 0 || len(used.List()) != 0 || used.pairs.Len() != 0 {
			t.Fatalf("%s: after Reset: Len=%d List=%d pairs=%d, want empty",
				tc.name, used.Len(), len(used.List()), used.pairs.Len())
		}
		for _, e := range used.pairs.entries {
			if e != u64Empty {
				t.Fatalf("%s: Reset left key %#x in the table", tc.name, e)
			}
		}
		for _, p := range stored {
			if used.Has(p[0], p[1]) {
				t.Fatalf("%s: Has(%d,%d) after Reset", tc.name, p[0], p[1])
			}
		}
		for i := 0; i < 1000; i++ {
			v, n := graph.NodeID(rng.Intn(64)), graph.NodeID(rng.Intn(64))
			if got, want := used.Add(v, n, int32(i)), fresh.Add(v, n, int32(i)); got != want {
				t.Fatalf("%s: Add(%d,%d): reset %v, fresh %v", tc.name, v, n, got, want)
			}
		}
		a, b := used.List(), fresh.List()
		if len(a) != len(b) {
			t.Fatalf("%s: List: reset %d answers, fresh %d", tc.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: List[%d]: reset %+v, fresh %+v", tc.name, i, a[i], b[i])
			}
		}
	}
}

func TestU64SetResetBehavesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	used := NewU64Set()
	for i := 0; i < 3000; i++ {
		used.Add(uint64(rng.Intn(1 << 20)))
	}
	used.Reset()
	fresh := NewU64Set()
	if used.Len() != 0 {
		t.Fatalf("Len=%d after Reset", used.Len())
	}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(1 << 16))
		if got, want := used.Add(k), fresh.Add(k); got != want {
			t.Fatalf("Add(%d): reset %v, fresh %v", k, got, want)
		}
	}
	if used.Len() != fresh.Len() {
		t.Fatalf("Len: reset %d, fresh %d", used.Len(), fresh.Len())
	}
}
