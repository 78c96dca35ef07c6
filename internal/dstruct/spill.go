package dstruct

import (
	"errors"
	"fmt"
)

// ErrSpill is the root of every disk I/O failure in the spilling structures
// (SpillDict and the disk-backed Deferred frontier): create, write, close,
// read and remove failures are all wrapped so they satisfy
// errors.Is(err, ErrSpill). The error travels the Rows sticky-error contract
// — evaluation stops, the execution's resources (including the spill
// directory) are released, and a pooled evaluator bundle is discarded rather
// than recycled. An ErrSpill is not retryable on the same execution; a fresh
// execution may succeed once the underlying disk condition clears.
var ErrSpill = errors.New("dstruct: spill I/O failure")

// spillErr types an I/O failure: the result wraps both ErrSpill and the
// underlying error, and names the operation that failed.
func spillErr(op string, err error) error {
	return fmt.Errorf("%w: %s: %w", ErrSpill, op, err)
}

// TupleDict is the D_R access surface shared by the in-memory Dict and the
// disk-spilling SpillDict.
type TupleDict interface {
	Add(Tuple)
	Remove() (Tuple, bool)
	Len() int
	Adds() int
	MinDistance() (int32, bool)
	// Inject re-admits every deferred tuple with distance ≤ psi and reports
	// how many (the incremental distance-aware phase step). Dict adopts the
	// parked buckets by slice move; the others re-add tuple by tuple. The
	// contract for every implementation is that the dictionary has drained
	// (the phase exhausted): injecting into a live dictionary would order
	// parked vs resident tuples differently per implementation.
	Inject(df *Deferred, psi int32) int
	// Err returns the first I/O error encountered (always nil for Dict).
	Err() error
	// Bytes returns the approximate resident footprint in bytes (spilled
	// tuples live on disk and are not counted). Capacity-based; see
	// Dict.Bytes for the accounting model.
	Bytes() int64
	// Close releases any on-disk resources (no-op for Dict).
	Close() error
}

var _ TupleDict = (*Dict)(nil)
var _ TupleDict = (*SpillDict)(nil)

// SpillDict is a D_R that bounds resident memory: when the number of
// in-memory tuples exceeds the threshold, the buckets with the largest keys
// (the tuples that will be popped last) are appended to per-bucket files and
// reloaded when they become the minimum. This implements the paper's
// future-work item of using "disk-based data structures to guarantee the
// termination of APPROX queries with large intermediate results" (§6): the
// search degrades to disk instead of exhausting memory.
//
// The resident portion is the flat bucket-queue Dict, not a map+heap: Add and
// Remove on the hot (non-spilling) path cost the same as the purely in-memory
// dictionary, and only the spill machinery touches the disk bookkeeping. The
// on-disk format is unchanged: one append-only file per packed
// (distance, final) key holding fixed-width encoded tuples. Tuples whose
// distance falls outside Dict's flat bucket range (possible only under
// extreme custom costs) stay resident in its sparse overflow and are exempt
// from spilling.
type SpillDict struct {
	mem       *Dict
	store     spillStore // the spilled buckets
	threshold int
	adds      int
	closed    bool
	err       error
}

// NewSpillDict creates a spilling dictionary keeping at most threshold
// tuples resident. dir is the parent spill directory (the system temp dir
// when empty); each dictionary spills into its own fresh subdirectory of it,
// removed by Close, so any number of concurrent executions may share one
// configured spill directory without their per-key files colliding.
func NewSpillDict(threshold int, dir string) (*SpillDict, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("dstruct: NewSpillDict: threshold must be positive")
	}
	sd := &SpillDict{
		mem:       NewDict(),
		store:     spillStore{kind: &dictSpill},
		threshold: threshold,
	}
	if err := sd.store.open(dir); err != nil {
		return nil, spillErr("NewSpillDict", err)
	}
	return sd, nil
}

func (sd *SpillDict) fail(err error) {
	if sd.err == nil {
		sd.err = err
	}
}

// Err returns the first I/O error encountered.
func (sd *SpillDict) Err() error { return sd.err }

// Add inserts t, spilling cold buckets if the resident bound is exceeded.
// Adding to a closed dictionary is a no-op (it must not resurrect files under
// a directory Close already removed).
func (sd *SpillDict) Add(t Tuple) {
	if sd.err != nil || sd.closed {
		return
	}
	sd.mem.Add(t)
	sd.adds++
	if sd.mem.Len() > sd.threshold {
		sd.spillColdest()
	}
}

// spillColdest writes the largest-keyed resident buckets to disk until the
// resident count is within the threshold, never touching the minimum key
// (pops must stay cheap).
func (sd *SpillDict) spillColdest() {
	min, ok := sd.mem.minKey()
	if !ok {
		return
	}
	for sd.mem.Len() > sd.threshold/2 {
		k, list := sd.takeMaxBucket(min)
		if list == nil {
			return // everything resident is the hot bucket (or overflow)
		}
		if err := sd.store.write(k, list); err != nil {
			sd.fail(err)
			return
		}
	}
}

// takeMaxBucket detaches and returns the resident sub-list with the largest
// packed key, excluding the hot bucket minK. At one distance, the non-final
// list (key bit 0 set) is colder than the final list.
func (sd *SpillDict) takeMaxBucket(minK int64) (int64, []Tuple) {
	dd := sd.mem
	for d := len(dd.buckets) - 1; d >= 0; d-- {
		b := &dd.buckets[d]
		if k := key(int32(d), false); len(b.nonFinal) > 0 && k != minK {
			list := b.nonFinal
			b.nonFinal = nil
			dd.size -= len(list)
			return k, list
		}
		if k := key(int32(d), true); len(b.final) > 0 && k != minK {
			list := b.final
			b.final = nil
			dd.size -= len(list)
			return k, list
		}
	}
	return 0, nil
}

// load re-reads the minimal spilled bucket into the resident dictionary. Only
// called when the corresponding resident sub-list is empty, so file order
// (oldest first) reconstructs the LIFO stack exactly.
func (sd *SpillDict) load(k int64) error {
	list, err := sd.store.read(k, 0)
	for _, t := range list {
		sd.mem.Add(t)
	}
	return err
}

// IOStats reports the lifetime spill I/O accounting: wall nanoseconds spent
// in spill-file operations and tuple-payload bytes written plus read.
func (sd *SpillDict) IOStats() (nanos, bytes int64) { return sd.store.ioNanos, sd.store.ioBytes }

// Remove pops the minimal tuple, reloading its bucket from disk if needed.
// At equal keys resident tuples pop before spilled ones (they are newer, and
// the stacks are LIFO).
func (sd *SpillDict) Remove() (Tuple, bool) {
	if sd.err != nil || sd.closed {
		return Tuple{}, false
	}
	for {
		rk, rok := sd.mem.minKey()
		dk, dok := sd.store.min()
		if !rok && !dok {
			return Tuple{}, false
		}
		if dok && (!rok || dk < rk) {
			if err := sd.load(dk); err != nil {
				sd.fail(err)
				return Tuple{}, false
			}
			continue
		}
		return sd.mem.Remove()
	}
}

// Len returns the number of stored tuples (resident + spilled).
func (sd *SpillDict) Len() int { return sd.mem.Len() + sd.store.spilled }

// Adds returns the lifetime number of insertions.
func (sd *SpillDict) Adds() int { return sd.adds }

// Spills returns the number of bucket spill operations performed.
func (sd *SpillDict) Spills() int { return sd.store.spills }

// Resident returns the number of tuples currently held in memory.
func (sd *SpillDict) Resident() int { return sd.mem.Len() }

// Bytes returns the approximate resident footprint: the in-memory dictionary
// plus the disk bookkeeping. Spilled tuples are on disk and not counted.
func (sd *SpillDict) Bytes() int64 {
	return sd.mem.Bytes() + int64(len(sd.store.onDisk))*48 + int64(cap(sd.store.diskKeys))*8
}

// Lower halves the resident threshold (floor 1) and spills down to it — the
// soft-watermark escalation of the memory governor: an execution over its
// soft budget trades more of its frontier to disk and keeps streaming.
func (sd *SpillDict) Lower() {
	if sd.err != nil || sd.closed {
		return
	}
	sd.threshold /= 2
	if sd.threshold < 1 {
		sd.threshold = 1
	}
	if sd.mem.Len() > sd.threshold {
		sd.spillColdest()
	}
}

// MinDistance returns the smallest distance present, if any.
func (sd *SpillDict) MinDistance() (int32, bool) {
	if sd.err != nil {
		return 0, false
	}
	rk, rok := sd.mem.minKey()
	dk, dok := sd.store.min()
	switch {
	case !rok && !dok:
		return 0, false
	case !rok:
		return int32(dk >> 1), true
	case dok && dk < rk:
		return int32(dk >> 1), true
	default:
		return int32(rk >> 1), true
	}
}

// Close removes all spill files and the spill directory. Close is idempotent;
// after it, Add and Remove are no-ops. A removal failure is reported as a
// typed ErrSpill (see spillStore.teardown).
func (sd *SpillDict) Close() error {
	sd.closed = true
	return sd.store.teardown()
}
