package dstruct

// Deferred is the deferred frontier of the incremental distance-aware mode
// (§4.3 "retrieving answers by distance", made resumable): when the evaluator
// rejects a tuple because its distance exceeds the current cost bound ψ, the
// tuple is parked here instead of being discarded. When the phase exhausts
// and ψ is raised, the dictionary re-admits every now-admissible tuple via
// Inject, so no phase ever recomputes the work of its predecessors.
//
// The structure mirrors the monotone bucket layout of Dict — a flat array of
// per-distance buckets plus an advancing minimum cursor — with one twist:
// each per-bucket list is FIFO, not LIFO, because parked tuples must re-enter
// D_R in the exact order the restarting reference evaluator would have
// generated them. Tuples are routed to the final/non-final sub-list exactly
// as Dict.Add would route them, which is what lets Dict adopt a whole bucket
// as a slice move: D_R is empty when a phase exhausts, so the parked FIFO
// list simply becomes the bucket's stack. Distances outside
// [0, maxBucketDist) land in a small generation-ordered overflow slice (they
// only arise under extreme custom edit/relax costs).
type Deferred struct {
	buckets  []bucket // per-distance; both sub-lists in generation order
	cursor   int      // lower bound on the minimal non-empty bucket
	overflow []Tuple  // out-of-range distances, generation order
	size     int
}

// NewDeferred returns an empty deferred frontier. The argument, once the
// final-first ablation switch, is ignored (see Dict.Reset).
func NewDeferred(_ bool) *Deferred {
	return &Deferred{}
}

// Add parks t. Tuples are only ever deferred because t.D exceeds the current
// ψ ≥ 0, but out-of-range distances are tolerated for safety.
func (df *Deferred) Add(t Tuple) {
	d := int(t.D)
	if d < 0 || d >= maxBucketDist {
		df.overflow = append(df.overflow, t)
		df.size++
		return
	}
	if d >= len(df.buckets) {
		df.buckets = growBuckets(df.buckets, d)
	}
	df.buckets[d].push(t)
	if d < df.cursor {
		df.cursor = d
	}
	df.size++
}

// Len returns the number of parked tuples.
func (df *Deferred) Len() int { return df.size }

// Reset restores the frontier to its empty, usable state, retaining bucket
// capacity for a pooled reuse (the counterpart of Dict.Reset). The argument
// is ignored (see Dict.Reset).
func (df *Deferred) Reset(_ bool) {
	for i := range df.buckets {
		b := &df.buckets[i]
		b.final = b.final[:0]
		b.nonFinal = b.nonFinal[:0]
	}
	df.overflow = df.overflow[:0]
	df.cursor = 0
	df.size = 0
}

// Close is a no-op: the frontier holds nothing but memory. It survives only
// because benchmark/layers calls it (ROADMAP item 8d drops the call there).
func (df *Deferred) Close() error { return nil }

// Bytes returns the approximate resident footprint of the frontier.
// Capacity-based like Dict.Bytes.
func (df *Deferred) Bytes() int64 {
	n := int64(cap(df.buckets))*bucketMem + int64(cap(df.overflow))*tupleMem
	for i := range df.buckets {
		b := &df.buckets[i]
		n += int64(cap(b.final)+cap(b.nonFinal)) * tupleMem
	}
	return n
}

// takeBucket detaches the complete parked content of distance d.
func (df *Deferred) takeBucket(d int) (final, nonFinal []Tuple) {
	b := &df.buckets[d]
	final, nonFinal = b.final, b.nonFinal
	b.final, b.nonFinal = nil, nil
	df.size -= len(final) + len(nonFinal)
	return final, nonFinal
}

// MinDistance returns the smallest parked distance, if any. The distance-
// aware driver uses it to step ψ directly to the first phase that will
// re-admit a tuple, skipping provably empty phases.
func (df *Deferred) MinDistance() (int32, bool) {
	if df.size == 0 {
		return 0, false
	}
	min := int32(0)
	found := false
	for _, t := range df.overflow {
		if !found || t.D < min {
			min, found = t.D, true
		}
	}
	if found && min < 0 {
		return min, true
	}
	for df.cursor < len(df.buckets) {
		b := &df.buckets[df.cursor]
		if len(b.final) > 0 || len(b.nonFinal) > 0 {
			d := int32(df.cursor)
			if found && min < d {
				return min, true
			}
			return d, true
		}
		df.cursor++
	}
	return min, found
}

// maxDrainDist returns the largest distance that may hold parked tuples.
func (df *Deferred) maxDrainDist(psi int32) int {
	max := len(df.buckets) - 1
	if int32(max) > psi {
		max = int(psi)
	}
	return max
}

// Drain removes every parked tuple with distance ≤ psi and hands each to
// emit in ascending distance, final sub-list before non-final, FIFO within
// each — precisely the insertion sequence that reconstructs the dictionary
// stacks a restarted phase would have built. Dict bypasses this with the
// zero-copy bucket adoption in Inject; the heap-backed RefDict re-adds tuple
// by tuple.
func (df *Deferred) Drain(psi int32, emit func(Tuple)) {
	for d := df.cursor; d <= df.maxDrainDist(psi); d++ {
		final, nonFinal := df.takeBucket(d)
		for _, t := range final {
			emit(t)
		}
		for _, t := range nonFinal {
			emit(t)
		}
	}
	df.drainOverflow(psi, emit)
}

func (df *Deferred) drainOverflow(psi int32, emit func(Tuple)) {
	if len(df.overflow) == 0 {
		return
	}
	kept := df.overflow[:0]
	for _, t := range df.overflow {
		if t.D <= psi {
			df.size--
			emit(t)
		} else {
			kept = append(kept, t)
		}
	}
	df.overflow = kept
}

// Inject on Dict re-admits every parked tuple with distance ≤ psi and
// reports how many. Inject must only be called on a drained dictionary (the
// phase exhausted — see TupleDict), so each parked FIFO bucket becomes the
// dictionary bucket by slice adoption with no per-tuple work; as
// belt-and-braces, a target bucket that is unexpectedly live has the parked
// tuples prepended (they are older, so they must pop later).
func (dd *Dict) Inject(df *Deferred, psi int32) int {
	n := 0
	for d := df.cursor; d <= df.maxDrainDist(psi); d++ {
		final, nonFinal := df.takeBucket(d)
		k := len(final) + len(nonFinal)
		if k == 0 {
			continue
		}
		if d >= len(dd.buckets) {
			dd.buckets = growBuckets(dd.buckets, d)
		}
		t := &dd.buckets[d]
		if len(t.final) == 0 {
			t.final = final
		} else {
			t.final = append(final, t.final...)
		}
		if len(t.nonFinal) == 0 {
			t.nonFinal = nonFinal
		} else {
			t.nonFinal = append(nonFinal, t.nonFinal...)
		}
		if d < dd.cursor {
			dd.cursor = d
		}
		dd.size += k
		dd.adds += k
		n += k
	}
	df.drainOverflow(psi, func(t Tuple) {
		dd.Add(t)
		n++
	})
	return n
}

// Inject implements TupleDict for RefDict by re-adding tuple by tuple.
func (dd *RefDict) Inject(df *Deferred, psi int32) int {
	n := 0
	df.Drain(psi, func(t Tuple) {
		dd.Add(t)
		n++
	})
	return n
}
