package dstruct

import "fmt"

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
//
// With a positive spill threshold (mirroring SpillDict, and sharing its
// on-disk tuple codec under a distinct file prefix) the frontier bounds its
// resident memory too: when the parked population exceeds the threshold, the
// buckets farthest from re-admission are appended to per-key files and read
// back the first time their distance comes within ψ. Distance-aware mode
// exists to rescue queries whose frontier would exhaust memory, so the
// parked frontier must not silently reintroduce that growth.
type Deferred struct {
	buckets      []bucket // per-distance; both sub-lists in generation order
	cursor       int      // lower bound on the minimal non-empty bucket
	overflow     []Tuple  // out-of-range distances, generation order
	size         int
	resident     int
	noFinalFirst bool

	// Spill state (inactive when threshold == 0): store holds the spilled
	// sub-lists, so size == resident + store.spilled.
	threshold int
	store     spillStore
	closed    bool
	err       error
}

// NewDeferred returns an empty deferred frontier. noFinalFirst must match the
// dictionary the frontier will be injected into, so sub-list routing agrees.
func NewDeferred(noFinalFirst bool) *Deferred {
	return &Deferred{noFinalFirst: noFinalFirst, store: spillStore{kind: &deferredSpill}}
}

// NewDeferredSpill returns a deferred frontier keeping at most threshold
// parked tuples resident, spilling the rest into a fresh subdirectory of dir
// (of the system temp dir when empty), removed by Close. The subdirectory is
// what lets concurrent executions share one configured spill directory; see
// NewSpillDict.
func NewDeferredSpill(threshold int, dir string, noFinalFirst bool) (*Deferred, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("dstruct: NewDeferredSpill: threshold must be positive")
	}
	df := NewDeferred(noFinalFirst)
	df.threshold = threshold
	if err := df.store.open(dir); err != nil {
		return nil, spillErr("NewDeferredSpill", err)
	}
	return df, nil
}

// Err returns the first I/O error encountered (always nil without spilling).
func (df *Deferred) Err() error { return df.err }

func (df *Deferred) fail(err error) {
	if df.err == nil {
		df.err = err
	}
}

// Add parks t. Tuples are only ever deferred because t.D exceeds the current
// ψ ≥ 0, but out-of-range distances are tolerated for safety.
func (df *Deferred) Add(t Tuple) {
	if df.err != nil || df.closed {
		return
	}
	d := int(t.D)
	if d < 0 || d >= maxBucketDist {
		df.overflow = append(df.overflow, t)
		df.size++
		df.resident++
		return
	}
	if d >= len(df.buckets) {
		df.buckets = growBuckets(df.buckets, d)
	}
	df.buckets[d].push(t, df.noFinalFirst)
	if d < df.cursor {
		df.cursor = d
	}
	df.size++
	df.resident++
	if df.threshold > 0 && df.resident > df.threshold {
		df.spillColdest()
	}
}

// Len returns the number of parked tuples (resident + spilled).
func (df *Deferred) Len() int { return df.size }

// Reset restores the frontier to its empty, usable state, retaining bucket
// capacity for a pooled reuse (the counterpart of Dict.Reset). Any spilled
// state is released and spilling is fully disarmed — the pool only recycles
// in-memory frontiers, but a frontier whose spill was armed mid-run by
// Escalate must not leak files or carry a stale spill directory into its next
// tenant — and the closed flag is cleared so the frontier accepts tuples
// again. A cleanup failure is recorded as the frontier's sticky error rather
// than silently dropped: the frontier is then unusable, which is what routes
// the bundle holding it to the pool's discard path instead of back into
// circulation over leaked files.
func (df *Deferred) Reset(noFinalFirst bool) {
	for i := range df.buckets {
		b := &df.buckets[i]
		b.final = b.final[:0]
		b.nonFinal = b.nonFinal[:0]
	}
	df.overflow = df.overflow[:0]
	df.cursor = 0
	df.size = 0
	df.resident = 0
	df.noFinalFirst = noFinalFirst
	df.err = nil
	df.closed = false
	df.store.ioNanos, df.store.ioBytes = 0, 0
	if err := df.DisarmSpill(); err != nil {
		df.fail(err)
	}
}

// Escalate arms disk spilling on the frontier, or tightens it when already
// armed — the soft-watermark response of the memory governor: parked tuples
// degrade to disk so the execution keeps streaming instead of aborting. On an
// unarmed frontier it creates a spill subdirectory under dir (the system temp
// dir when empty) and sets the threshold to half the current resident count;
// on an armed one it halves the threshold (floor 1). Either way the coldest
// buckets spill immediately until the frontier is within the new threshold.
// Any I/O failure lands in the frontier's sticky error.
func (df *Deferred) Escalate(dir string) error {
	if df.closed || df.err != nil {
		return df.err
	}
	if df.threshold == 0 {
		if err := df.store.open(dir); err != nil {
			df.fail(spillErr("deferred escalate", err))
			return df.err
		}
		df.threshold = df.resident / 2
	} else {
		df.threshold /= 2
	}
	if df.threshold < 1 {
		df.threshold = 1
	}
	if df.resident > df.threshold {
		df.spillColdest()
	}
	return df.err
}

// DisarmSpill releases every spill file and the spill directory (when owned)
// and returns the frontier to purely in-memory operation. Spilled tuples are
// discarded, so this is only correct once the frontier's content no longer
// matters — the evaluator calls it when an execution finishes, before a
// pooled bundle is recycled. A no-op on a frontier that never armed spilling.
// The first cleanup failure is returned (typed ErrSpill) and recorded as the
// frontier's sticky error so a pooled bundle over leaked files is discarded.
func (df *Deferred) DisarmSpill() error {
	if df.threshold == 0 && !df.store.armed() {
		return nil
	}
	err := df.store.teardown()
	df.size = df.resident
	df.threshold = 0
	if err != nil {
		df.fail(err)
	}
	return err
}

// Bytes returns the approximate resident footprint of the frontier (spilled
// tuples live on disk and are not counted). Capacity-based like Dict.Bytes.
func (df *Deferred) Bytes() int64 {
	n := int64(cap(df.buckets))*bucketMem + int64(cap(df.overflow))*tupleMem
	for i := range df.buckets {
		b := &df.buckets[i]
		n += int64(cap(b.final)+cap(b.nonFinal)) * tupleMem
	}
	return n
}

// IOStats reports the frontier's lifetime spill I/O accounting: wall
// nanoseconds spent in spill-file operations and tuple-payload bytes written
// plus read. Zeroed by Reset along with the rest of the pooled state.
func (df *Deferred) IOStats() (nanos, bytes int64) { return df.store.ioNanos, df.store.ioBytes }

// Resident returns the number of parked tuples currently held in memory.
func (df *Deferred) Resident() int { return df.resident }

// Spills returns the number of bucket spill operations performed.
func (df *Deferred) Spills() int { return df.store.spills }

// spillColdest appends the largest-distance resident sub-lists to disk until
// the resident count is within half the threshold. Large distances are
// re-admitted last, so they stay cold longest; the overflow slice is exempt
// (it is tiny by construction).
func (df *Deferred) spillColdest() {
	for d := len(df.buckets) - 1; d >= df.cursor && df.resident > df.threshold/2; d-- {
		b := &df.buckets[d]
		if len(b.nonFinal) > 0 {
			if !df.spillList(key(int32(d), false), &b.nonFinal) {
				return
			}
		}
		if len(b.final) > 0 {
			if !df.spillList(key(int32(d), true), &b.final) {
				return
			}
		}
	}
}

func (df *Deferred) spillList(k int64, list *[]Tuple) bool {
	if err := df.store.write(k, *list); err != nil {
		df.fail(err)
		return false
	}
	df.resident -= len(*list)
	*list = nil
	return true
}

// loadList reads a spilled sub-list back (generation order) and removes its
// file. The resident remnant of the same sub-list is newer and is re-appended
// after the disk content.
func (df *Deferred) loadList(k int64, resident []Tuple) []Tuple {
	list, err := df.store.read(k, len(resident))
	if err != nil {
		df.fail(err)
	}
	df.resident += len(list)
	return append(list, resident...)
}

// takeBucket detaches the complete parked content of distance d, reloading
// any spilled portion so both sub-lists are whole and in generation order.
func (df *Deferred) takeBucket(d int) (final, nonFinal []Tuple) {
	b := &df.buckets[d]
	final, nonFinal = b.final, b.nonFinal
	b.final, b.nonFinal = nil, nil
	if df.store.onDisk[key(int32(d), true)] > 0 {
		final = df.loadList(key(int32(d), true), final)
	}
	if df.store.onDisk[key(int32(d), false)] > 0 {
		nonFinal = df.loadList(key(int32(d), false), nonFinal)
	}
	n := len(final) + len(nonFinal)
	df.size -= n
	df.resident -= n
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
	if k, ok := df.store.min(); ok {
		if d := int32(k >> 1); !found || d < min {
			min, found = d, true
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

// rewindToDisk pulls the cursor back to the smallest spilled distance:
// MinDistance advances the cursor past buckets whose resident part is empty,
// and a spilled bucket may live below it.
func (df *Deferred) rewindToDisk() {
	if k, ok := df.store.min(); ok && int(k>>1) < df.cursor {
		df.cursor = int(k >> 1)
	}
}

// Drain removes every parked tuple with distance ≤ psi and hands each to
// emit in ascending distance, final sub-list before non-final, FIFO within
// each — precisely the insertion sequence that reconstructs the dictionary
// stacks a restarted phase would have built. Dict bypasses this with the
// zero-copy bucket adoption in Inject; the heap- and disk-backed
// dictionaries re-add tuple by tuple.
func (df *Deferred) Drain(psi int32, emit func(Tuple)) {
	df.rewindToDisk()
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
			df.resident--
			emit(t)
		} else {
			kept = append(kept, t)
		}
	}
	df.overflow = kept
}

// Close removes any spill files and the spill directory. A frontier without
// spilling has nothing to release. Close is idempotent; after it, Add is a
// no-op. A removal failure is reported as a typed ErrSpill (see
// spillStore.teardown).
func (df *Deferred) Close() error {
	df.closed = true
	return df.store.teardown()
}

// Inject on Dict re-admits every parked tuple with distance ≤ psi and
// reports how many. Inject must only be called on a drained dictionary (the
// phase exhausted — see TupleDict), so each parked FIFO bucket becomes the
// dictionary bucket by slice adoption with no per-tuple work; as
// belt-and-braces, a target bucket that is unexpectedly live has the parked
// tuples prepended (they are older, so they must pop later).
func (dd *Dict) Inject(df *Deferred, psi int32) int {
	n := 0
	df.rewindToDisk()
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

// Inject implements TupleDict for SpillDict by re-adding tuple by tuple
// (re-admitted buckets may immediately re-spill under memory pressure).
func (sd *SpillDict) Inject(df *Deferred, psi int32) int {
	n := 0
	df.Drain(psi, func(t Tuple) {
		sd.Add(t)
		n++
	})
	return n
}
