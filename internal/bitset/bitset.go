// Package bitset provides the bitmap vectors that back set operations in the
// graph store, mirroring the role of Sparksee's bitmap indexes (Martínez-Bazán
// et al., IDEAS 2012) in the paper's implementation: cheap union and
// duplicate elimination over sets of object identifiers.
package bitset

import "math/bits"

const wordBits = 64

// Set is a growable bitmap over non-negative integers. The zero value is an
// empty set ready to use.
type Set struct {
	words []uint64
	n     int // cached population count; -1 when stale
}

// New returns an empty set with capacity hint for values < n.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Add inserts v into the set. It reports whether v was newly added.
func (s *Set) Add(v int) bool {
	if v < 0 {
		return false
	}
	w := v / wordBits
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	mask := uint64(1) << uint(v%wordBits)
	if s.words[w]&mask != 0 {
		return false
	}
	s.words[w] |= mask
	if s.n >= 0 {
		s.n++
	}
	return true
}

// Remove deletes v from the set. It reports whether v was present.
func (s *Set) Remove(v int) bool {
	if v < 0 || v/wordBits >= len(s.words) {
		return false
	}
	w, mask := v/wordBits, uint64(1)<<uint(v%wordBits)
	if s.words[w]&mask == 0 {
		return false
	}
	s.words[w] &^= mask
	if s.n >= 0 {
		s.n--
	}
	return true
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if v < 0 {
		return false
	}
	w := v / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(v%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	if s.n < 0 {
		n := 0
		for _, w := range s.words {
			n += bits.OnesCount64(w)
		}
		s.n = n
	}
	return s.n
}

// Words returns the number of 64-bit words backing the set (its resident
// footprint is 8×Words bytes, regardless of population).
func (s *Set) Words() int { return len(s.words) }

// setOverheadBytes is the fixed per-Set footprint charged by Bytes on top of
// the word storage: the struct itself (slice header + count).
const setOverheadBytes = 32

// Bytes returns the set's capacity-based resident footprint in bytes:
// 8×cap(words) of bitmap storage plus the fixed struct overhead. Like the
// dstruct accounting, it measures what the process holds, regardless of
// population.
func (s *Set) Bytes() int64 { return int64(cap(s.words))*8 + setOverheadBytes }

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.n = 0
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Union adds every element of o to s.
func (s *Set) Union(o *Set) {
	if len(o.words) > len(s.words) {
		grown := make([]uint64, len(o.words))
		copy(grown, s.words)
		s.words = grown
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
	s.n = -1
}

// Range calls fn for each element in increasing order until fn returns false.
func (s *Set) Range(fn func(v int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the elements in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Len())
	s.Range(func(v int) bool { out = append(out, v); return true })
	return out
}

// OrInto ors src into dst word by word, sixty-four bits at a time, and
// returns the number of bits the operation newly set (popcount of src &^ dst,
// accumulated before writing). It is the merge the bulk backend's lane-word
// scan performs inline per node, kept here as the word kernel the layer
// benchmark times (bitset.orinto_ns_per_word). Words of src beyond len(dst)
// are ignored; dst is never grown.
func OrInto(dst, src []uint64) int {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	added := 0
	for i, w := range src {
		if nw := w &^ dst[i]; nw != 0 {
			added += bits.OnesCount64(nw)
			dst[i] |= nw
		}
	}
	return added
}
