package dstruct

import "container/heap"

// RefDict is the original D_R implementation: per-key tuple lists in a Go
// map, ordered by a binary heap of packed (distance, final, lifted) keys. It
// holds a Dict's distances outside the bucket range, and it is the naive
// reference the package's differential tests hold the bucket-queue Dict to
// (both must produce byte-identical pop sequences).
type RefDict struct {
	lists map[int64][]Tuple
	keys  keyHeap
	ceil  int32 // pop ceiling; noCeiling when nothing is parked
	size  int
}

// NewRefDict returns an empty reference dictionary.
func NewRefDict() *RefDict {
	return &RefDict{lists: make(map[int64][]Tuple), ceil: noCeiling}
}

// key packs (distance, final, lifted) so that smaller distances sort first
// and, at equal distance, final entries (0) sort before lifted ones (1) and
// lifted ones before the rest (2).
func key(t Tuple) int64 {
	k := int64(t.D) << 2
	switch {
	case t.Final:
	case t.Has(Lifted):
		k |= 1
	default:
		k |= 2
	}
	return k
}

// Add inserts t.
func (dd *RefDict) Add(t Tuple) {
	k := key(t)
	list, ok := dd.lists[k]
	if !ok || len(list) == 0 {
		heap.Push(&dd.keys, k)
	}
	dd.lists[k] = append(list, t)
	dd.size++
}

// Remove pops the tuple with minimal key (distance first, then final, lifted
// and the rest), unless that distance is above the ceiling.
func (dd *RefDict) Remove() (Tuple, bool) {
	for dd.keys.Len() > 0 {
		k := dd.keys[0]
		list := dd.lists[k]
		if len(list) == 0 {
			heap.Pop(&dd.keys)
			delete(dd.lists, k)
			continue
		}
		if int32(k>>2) > dd.ceil {
			break
		}
		t := list[len(list)-1]
		dd.lists[k] = list[:len(list)-1]
		dd.size--
		return t, true
	}
	return Tuple{}, false
}

// Len returns the number of stored tuples.
func (dd *RefDict) Len() int { return dd.size }

// MinDistance returns the smallest distance present, if any.
func (dd *RefDict) MinDistance() (int32, bool) {
	for dd.keys.Len() > 0 {
		k := dd.keys[0]
		if len(dd.lists[k]) == 0 {
			heap.Pop(&dd.keys)
			delete(dd.lists, k)
			continue
		}
		return int32(k >> 2), true
	}
	return 0, false
}

// SetCeiling sets the pop ceiling c, as Dict.SetCeiling does, counting the
// stored entries of every key the new ceiling admits.
func (dd *RefDict) SetCeiling(c int32) int {
	n := 0
	for k, list := range dd.lists {
		if d := int32(k >> 2); d > dd.ceil && d <= c {
			n += len(list)
		}
	}
	dd.ceil = c
	return n
}

// Bytes returns the approximate resident footprint. Live tuples plus map and
// heap bookkeeping — the reference dictionary tracks no slice capacities, so
// the estimate is population-based rather than capacity-based.
func (dd *RefDict) Bytes() int64 {
	return int64(dd.size)*tupleMem + int64(len(dd.lists))*48 + int64(cap(dd.keys))*8
}

type keyHeap []int64

func (h keyHeap) Len() int            { return len(h) }
func (h keyHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h keyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *keyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	k := old[n-1]
	*h = old[:n-1]
	return k
}
