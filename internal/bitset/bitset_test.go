package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if s.Len() != 0 {
		t.Fatalf("zero set Len = %d, want 0", s.Len())
	}
	if s.Contains(3) {
		t.Fatal("zero set contains 3")
	}
	if !s.Add(3) {
		t.Fatal("Add(3) on zero set returned false")
	}
	if !s.Contains(3) || s.Len() != 1 {
		t.Fatalf("after Add(3): Contains=%v Len=%d", s.Contains(3), s.Len())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(10)
	for _, v := range []int{0, 1, 63, 64, 65, 1000} {
		if !s.Add(v) {
			t.Errorf("Add(%d) = false on first insert", v)
		}
		if s.Add(v) {
			t.Errorf("Add(%d) = true on second insert", v)
		}
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false after Add", v)
		}
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if !s.Remove(64) {
		t.Error("Remove(64) = false")
	}
	if s.Remove(64) {
		t.Error("Remove(64) = true on second removal")
	}
	if s.Contains(64) {
		t.Error("Contains(64) after Remove")
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
}

func TestNegativeValuesRejected(t *testing.T) {
	var s Set
	if s.Add(-1) {
		t.Error("Add(-1) = true")
	}
	if s.Contains(-5) {
		t.Error("Contains(-5) = true")
	}
	if s.Remove(-2) {
		t.Error("Remove(-2) = true")
	}
}

func TestSliceSortedAndComplete(t *testing.T) {
	s := New(0)
	in := []int{77, 3, 500, 0, 64, 63, 129}
	for _, v := range in {
		s.Add(v)
	}
	got := s.Slice()
	want := append([]int(nil), in...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("Slice len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Slice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New(0)
	for v := 0; v < 100; v++ {
		s.Add(v)
	}
	count := 0
	s.Range(func(v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("Range visited %d, want 10", count)
	}
}

func TestClear(t *testing.T) {
	s := New(0)
	s.Add(5)
	s.Add(100)
	s.Clear()
	if s.Len() != 0 || s.Contains(5) || s.Contains(100) {
		t.Fatal("Clear did not empty the set")
	}
	// Capacity retained: adding back must work.
	s.Add(100)
	if !s.Contains(100) {
		t.Fatal("Add after Clear failed")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(0)
	s.Add(1)
	s.Add(2)
	c := s.Clone()
	c.Add(3)
	s.Remove(1)
	if !c.Contains(1) || !c.Contains(3) || c.Len() != 3 {
		t.Fatal("clone does not have expected contents")
	}
	if s.Contains(3) || s.Len() != 1 {
		t.Fatal("mutating clone affected original")
	}
}

func TestUnion(t *testing.T) {
	a := New(0)
	b := New(0)
	for _, v := range []int{1, 2, 3, 64} {
		a.Add(v)
	}
	for _, v := range []int{3, 64, 65, 200} {
		b.Add(v)
	}
	a.Union(b)
	if got, want := a.Len(), 6; got != want {
		t.Errorf("union Len = %d, want %d", got, want)
	}
	for _, v := range []int{1, 2, 3, 64, 65, 200} {
		if !a.Contains(v) {
			t.Errorf("union missing %d", v)
		}
	}
}

// Property: Set behaves exactly like a map[int]bool under a random sequence
// of add/remove operations.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(ops []int16) bool {
		s := New(0)
		model := map[int]bool{}
		for _, op := range ops {
			v := int(op)
			if v < 0 {
				v = -v
				got := s.Remove(v)
				want := model[v]
				if got != want {
					return false
				}
				delete(model, v)
			} else {
				got := s.Add(v)
				want := !model[v]
				if got != want {
					return false
				}
				model[v] = true
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for v := range model {
			if !s.Contains(v) {
				return false
			}
		}
		for _, v := range s.Slice() {
			if !model[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative and obeys inclusion–exclusion on random
// sets.
func TestQuickSetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randSet := func() *Set {
		s := New(0)
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			s.Add(rng.Intn(300))
		}
		return s
	}
	for trial := 0; trial < 100; trial++ {
		a, b := randSet(), randSet()

		ab := a.Clone()
		ab.Union(b)
		ba := b.Clone()
		ba.Union(a)
		if got, want := ab.Slice(), ba.Slice(); !equalInts(got, want) {
			t.Fatalf("union not commutative: %v vs %v", got, want)
		}

		// |A∪B| + |A∩B| == |A| + |B|
		common := 0
		a.Range(func(v int) bool {
			if b.Contains(v) {
				common++
			}
			return true
		})
		if ab.Len()+common != a.Len()+b.Len() {
			t.Fatalf("inclusion-exclusion violated: |A∪B|=%d |A∩B|=%d |A|=%d |B|=%d",
				ab.Len(), common, a.Len(), b.Len())
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAdd(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < b.N; i++ {
		s.Add(i & ((1 << 20) - 1))
	}
}

func BenchmarkContains(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(i & ((1 << 20) - 1))
	}
}
