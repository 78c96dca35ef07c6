package dstruct

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"omega/internal/fault"
	"omega/internal/graph"
)

// spillKind is what tells the two users of spillStore apart on disk and in
// reports: the file-name prefix, the failpoint sites (see internal/fault —
// each is evaluated immediately before the real I/O operation it shadows; an
// injected error replaces the operation's outcome, so the recovery path under
// test is exactly the one a real disk failure would take) and the operation
// prefix of error messages, which also names the store's directory
// (omega-<op>-*, the pattern the serving janitor sweeps).
type spillKind struct {
	file                      string
	fpWrite, fpLoad, fpRemove string
	op                        string
}

var (
	dictSpill = spillKind{
		file:    "bucket",
		fpWrite: "dstruct.spill.write", fpLoad: "dstruct.spill.load", fpRemove: "dstruct.spill.remove",
		op: "spill",
	}
	deferredSpill = spillKind{
		file:    "deferred",
		fpWrite: "dstruct.deferred.write", fpLoad: "dstruct.deferred.load", fpRemove: "dstruct.deferred.remove",
		op: "deferred",
	}
)

const tupleBytes = 4 + 4 + 4 + 4 + 1 // v, n, s, d, final

func encodeTuple(buf []byte, t Tuple) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(t.V))
	binary.LittleEndian.PutUint32(buf[4:], uint32(t.N))
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.S))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.D))
	buf[16] = 0
	if t.Final {
		buf[16] = 1
	}
}

func decodeTuple(buf []byte) Tuple {
	return Tuple{
		V:     graph.NodeID(binary.LittleEndian.Uint32(buf[0:])),
		N:     graph.NodeID(binary.LittleEndian.Uint32(buf[4:])),
		S:     int32(binary.LittleEndian.Uint32(buf[8:])),
		D:     int32(binary.LittleEndian.Uint32(buf[12:])),
		Final: buf[16] == 1,
	}
}

// spillStore is the on-disk half of SpillDict and Deferred: one append-only
// file per packed (distance, final) key holding fixed-width encoded tuples,
// in a directory of the store's own, with the bookkeeping of what is out
// there. Which lists go to disk and when they come back is the owner's
// policy; the store only moves them. Every failure is a typed ErrSpill. The
// zero store with a kind is unarmed: it holds nothing and reads as empty.
type spillStore struct {
	kind     *spillKind
	dir      string        // "" while unarmed
	onDisk   map[int64]int // packed key → spilled tuple count
	diskKeys keyHeap       // the keys of onDisk, smallest first
	spilled  int           // total tuples currently on disk
	spills   int           // lists written, lifetime (for tests and stats)

	// ioNanos/ioBytes account wall time spent in and payload bytes moved
	// through spill-file I/O (writes, loads, removals). Disk latency dwarfs
	// the pair of clock reads per operation, so the accounting is effectively
	// free relative to what it measures.
	ioNanos int64
	ioBytes int64
}

// open arms the store in a fresh subdirectory of parent (the system temp dir
// when empty), which is what lets any number of concurrent executions share
// one configured spill directory without their per-key files colliding. The
// error is the raw one; the caller names the operation.
func (s *spillStore) open(parent string) error {
	dir, err := os.MkdirTemp(parent, "omega-"+s.kind.op+"-*")
	if err != nil {
		return err
	}
	s.dir, s.onDisk = dir, map[int64]int{}
	return nil
}

func (s *spillStore) armed() bool { return s.dir != "" }

func (s *spillStore) path(k int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%d.spill", s.kind.file, k))
}

// min returns the smallest key with spilled tuples, if any.
func (s *spillStore) min() (int64, bool) {
	if len(s.diskKeys) == 0 {
		return 0, false
	}
	return s.diskKeys[0], true
}

// write appends list to key k's file.
func (s *spillStore) write(k int64, list []Tuple) error {
	start := time.Now()
	defer func() { s.ioNanos += time.Since(start).Nanoseconds() }()
	if err := fault.Inject(s.kind.fpWrite); err != nil {
		return spillErr(s.kind.op+" write", err)
	}
	f, err := os.OpenFile(s.path(k), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return spillErr(s.kind.op+" open", err)
	}
	buf := make([]byte, tupleBytes*len(list))
	for i, t := range list {
		encodeTuple(buf[i*tupleBytes:], t)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return spillErr(s.kind.op+" write", err)
	}
	if err := f.Close(); err != nil {
		return spillErr(s.kind.op+" close", err)
	}
	s.ioBytes += int64(len(buf))
	if s.onDisk[k] == 0 {
		heap.Push(&s.diskKeys, k)
	}
	s.onDisk[k] += len(list)
	s.spilled += len(list)
	s.spills++
	return nil
}

// read returns key k's tuples in the order they were written (spills append,
// so file order is oldest first), with room for extra more, and removes the
// file. A failed read leaves the bookkeeping as it was and returns nothing; a
// failed removal returns the tuples with the error.
func (s *spillStore) read(k int64, extra int) ([]Tuple, error) {
	// removeFile below times itself; this window covers only the read.
	start := time.Now()
	if err := fault.Inject(s.kind.fpLoad); err != nil {
		s.ioNanos += time.Since(start).Nanoseconds()
		return nil, spillErr(s.kind.op+" load", err)
	}
	data, err := os.ReadFile(s.path(k))
	s.ioNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, spillErr(s.kind.op+" load", err)
	}
	s.ioBytes += int64(len(data))
	n := len(data) / tupleBytes
	list := make([]Tuple, n, n+extra)
	for i := range list {
		list[i] = decodeTuple(data[i*tupleBytes:])
	}
	s.spilled -= s.onDisk[k]
	delete(s.onDisk, k)
	for i, dk := range s.diskKeys {
		if dk == k {
			heap.Remove(&s.diskKeys, i)
			break
		}
	}
	return list, s.removeFile(s.path(k))
}

// removeFile deletes one spill file, typing any failure.
func (s *spillStore) removeFile(path string) error {
	start := time.Now()
	defer func() { s.ioNanos += time.Since(start).Nanoseconds() }()
	if err := fault.Inject(s.kind.fpRemove); err != nil {
		return spillErr(s.kind.op+" remove", err)
	}
	if err := os.Remove(path); err != nil {
		return spillErr(s.kind.op+" remove", err)
	}
	return nil
}

// teardown removes every spill file and the directory, discarding what was
// spilled, and leaves the store unarmed; the I/O accounting stays readable.
// It is idempotent. A removal failure is reported — never silently dropped —
// and the remaining cleanup is still attempted (an orphaned directory is
// reclaimed by the serving janitor at the next boot).
func (s *spillStore) teardown() error {
	var first error
	for k, n := range s.onDisk {
		if n > 0 {
			if err := s.removeFile(s.path(k)); err != nil && first == nil {
				first = err
			}
		}
	}
	s.onDisk, s.diskKeys, s.spilled = nil, nil, 0
	if s.dir != "" {
		// RemoveAll, not Remove: a file whose removal failed above must not
		// wedge the directory forever when the transient condition clears.
		if err := os.RemoveAll(s.dir); err != nil && first == nil {
			first = spillErr(s.kind.op+" remove", err)
		}
		s.dir = ""
	}
	return first
}
