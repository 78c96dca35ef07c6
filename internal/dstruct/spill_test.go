package dstruct

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"omega/internal/graph"
)

func newTestSpill(t *testing.T, threshold int) *SpillDict {
	t.Helper()
	sd, err := NewSpillDict(threshold, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

func TestSpillDictBasicOrder(t *testing.T) {
	sd := newTestSpill(t, 4)
	for _, d := range []int{9, 3, 7, 1, 5, 0, 8, 2, 6, 4} {
		sd.Add(tup(d, d, 0, d, false))
	}
	if sd.Err() != nil {
		t.Fatal(sd.Err())
	}
	if sd.Spills() == 0 {
		t.Fatal("threshold of 4 with 10 inserts never spilled")
	}
	last := int32(-1)
	for i := 0; i < 10; i++ {
		x, ok := sd.Remove()
		if !ok {
			t.Fatalf("Remove %d failed: %v", i, sd.Err())
		}
		if x.D < last {
			t.Fatalf("pop order broke: %d after %d", x.D, last)
		}
		last = x.D
	}
	if _, ok := sd.Remove(); ok {
		t.Fatal("Remove succeeded on empty dict")
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillDictFinalFirst(t *testing.T) {
	sd := newTestSpill(t, 2)
	sd.Add(tup(1, 1, 0, 2, false))
	sd.Add(tup(2, 2, 0, 2, true))
	sd.Add(tup(3, 3, 0, 2, false))
	sd.Add(tup(4, 4, 0, 2, true))
	x, ok := sd.Remove()
	if !ok || !x.Final {
		t.Fatalf("first pop = %+v, want a final tuple", x)
	}
}

func TestSpillDictLenAndResident(t *testing.T) {
	sd := newTestSpill(t, 3)
	for i := 0; i < 20; i++ {
		sd.Add(tup(i, i, 0, i%5, false))
	}
	if sd.Len() != 20 {
		t.Fatalf("Len = %d, want 20", sd.Len())
	}
	// The hot (minimum) bucket is exempt from spilling, so the resident
	// bound is threshold plus the hot bucket (4 tuples per distance here).
	if sd.Resident() > 3+4 {
		t.Fatalf("Resident = %d, want ≤ threshold+hot-bucket (7)", sd.Resident())
	}
	if sd.Spills() == 0 {
		t.Fatal("no spills at threshold 3 with 20 inserts")
	}
	if sd.Adds() != 20 {
		t.Fatalf("Adds = %d, want 20", sd.Adds())
	}
	for i := 0; i < 20; i++ {
		if _, ok := sd.Remove(); !ok {
			t.Fatalf("Remove %d failed: %v", i, sd.Err())
		}
	}
	if sd.Len() != 0 {
		t.Fatalf("Len after drain = %d", sd.Len())
	}
}

// Property: under a random Dijkstra-style workload the SpillDict pops the
// same multiset, in the same key order, as the in-memory Dict.
func TestQuickSpillAgainstDict(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		sd := newTestSpill(t, 1+rng.Intn(5))
		dd := NewDict()
		lastKey := int64(-1)
		pending := 0
		for op := 0; op < 400; op++ {
			if pending == 0 || rng.Intn(3) != 0 {
				d := rng.Intn(6)
				f := rng.Intn(2) == 0
				if key(int32(d), f) < lastKey {
					continue
				}
				tt := tup(op, op, rng.Intn(3), d, f)
				sd.Add(tt)
				dd.Add(tt)
				pending++
			} else {
				a, ok1 := sd.Remove()
				b, ok2 := dd.Remove()
				if ok1 != ok2 {
					t.Fatalf("availability diverged: %v vs %v (err=%v)", ok1, ok2, sd.Err())
				}
				// Same key; LIFO order may differ across the spill boundary,
				// so compare (distance, final) only.
				if a.D != b.D || a.Final != b.Final {
					t.Fatalf("keys diverged: %+v vs %+v", a, b)
				}
				lastKey = key(a.D, a.Final)
				pending--
			}
		}
		if sd.Len() != dd.Len() {
			t.Fatalf("Len diverged: %d vs %d", sd.Len(), dd.Len())
		}
		if err := sd.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpillDictMinDistance(t *testing.T) {
	sd := newTestSpill(t, 2)
	for i := 0; i < 10; i++ {
		sd.Add(tup(i, i, 0, 5, false))
	}
	sd.Add(tup(99, 99, 0, 1, false))
	if md, ok := sd.MinDistance(); !ok || md != 1 {
		t.Fatalf("MinDistance = %d,%v; want 1,true", md, ok)
	}
}

func TestSpillDictCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	sd, err := NewSpillDict(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sd.Add(tup(i, i, 0, i%7, false))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.spill"))
	if len(files) == 0 {
		t.Fatal("no spill files created")
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "*", "*.spill"))
	if len(files) != 0 {
		t.Fatalf("spill files survive Close: %v", files)
	}
}

// TestSpillDictClosedIsInert: Close is idempotent, and a closed dictionary
// ignores further Add/Remove instead of resurrecting files under a directory
// Close already cleaned (the iterator-lifecycle contract of the serving API).
func TestSpillDictClosedIsInert(t *testing.T) {
	dir := t.TempDir()
	sd, err := NewSpillDict(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sd.Add(tup(i, i, 0, i%7, false))
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sd.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	for i := 0; i < 50; i++ {
		sd.Add(tup(i, i, 0, i%7, false))
	}
	if _, ok := sd.Remove(); ok {
		t.Fatal("Remove on a closed dictionary returned a tuple")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.spill"))
	if len(files) != 0 {
		t.Fatalf("Add after Close recreated spill files: %v", files)
	}
}

// TestDeferredClosedIsInert mirrors the closed contract for the deferred
// frontier.
func TestDeferredClosedIsInert(t *testing.T) {
	dir := t.TempDir()
	df, err := NewDeferredSpill(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		df.Add(tup(i, i, 0, i%7, false))
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	for i := 0; i < 50; i++ {
		df.Add(tup(i, i, 0, i%7, false))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.spill"))
	if len(files) != 0 {
		t.Fatalf("Add after Close recreated spill files: %v", files)
	}
}

func TestSpillDictOwnDirCleanup(t *testing.T) {
	sd, err := NewSpillDict(2, "")
	if err != nil {
		t.Fatal(err)
	}
	dir := sd.store.dir
	for i := 0; i < 30; i++ {
		sd.Add(tup(i, i, 0, i%5, false))
	}
	if err := sd.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("own temp dir survives Close: %v", err)
	}
}

func TestSpillDictIOErrorSticky(t *testing.T) {
	dir := t.TempDir()
	sd, err := NewSpillDict(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Make the directory unwritable so the first spill fails.
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o700)
	for i := 0; i < 10; i++ {
		sd.Add(tup(i, i, 0, i, false))
	}
	if sd.Err() == nil {
		t.Skip("running as a user unaffected by directory permissions")
	}
	if _, ok := sd.Remove(); ok {
		t.Fatal("Remove succeeded after I/O failure")
	}
}

func TestSpillDictRejectsBadThreshold(t *testing.T) {
	if _, err := NewSpillDict(0, ""); err == nil {
		t.Fatal("threshold 0 accepted")
	}
}

// FuzzTupleCodec round-trips both encodings through the spill codec: the
// plain tuple (v, n, s, d, final) with whatever slot bytes it carries, and
// the continuation Cont(v, n, d, slot, cursor) built from the same words,
// whose slot and cursor must survive the disk and read back unchanged.
func FuzzTupleCodec(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), int32(0), false, uint32(0))
	f.Add(int32(1), int32(2), int32(3), int32(4), true, uint32(0))
	f.Add(int32(-1), int32(1<<30), int32(-5), int32(0), false, uint32(ContSlots-1))
	f.Add(int32(7), int32(8), int32(math.MaxInt32), int32(maxBucketDist), false, uint32(1<<31))
	f.Fuzz(func(t *testing.T, v, n, s, d int32, final bool, slot uint32) {
		buf := make([]byte, tupleBytes)
		roundTrip := func(tt Tuple) {
			encodeTuple(buf, tt)
			if got := decodeTuple(buf); got != tt {
				t.Fatalf("codec round trip: %+v → %+v", tt, got)
			}
		}
		roundTrip(Tuple{V: graph.NodeID(v), N: graph.NodeID(n), S: s, D: d, Final: final,
			slot: [3]byte{byte(slot), byte(slot >> 8), byte(slot >> 16)}})

		sl, cur := int32(slot%ContSlots), s&math.MaxInt32
		c := Cont(graph.NodeID(v), graph.NodeID(n), d, sl, cur)
		if !c.IsCont() || c.Final || c.Slot() != sl || c.Cursor() != cur || c.D != d {
			t.Fatalf("Cont(%d, %d, %d, %d, %d) = %+v: slot %d, cursor %d", v, n, d, sl, cur, c, c.Slot(), c.Cursor())
		}
		roundTrip(c)
	})
}

// TestTupleSize pins the resident size the accounting assumes: a Tuple,
// continuation or not, is tupleMem bytes.
func TestTupleSize(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got != tupleMem {
		t.Fatalf("Tuple is %d bytes, tupleMem says %d", got, tupleMem)
	}
}
