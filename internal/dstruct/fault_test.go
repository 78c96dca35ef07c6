package dstruct

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"omega/internal/fault"
)

// fillSpill grows a SpillDict past its threshold so at least one bucket is on
// disk.
func fillSpill(t *testing.T, sd *SpillDict, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sd.Add(Tuple{V: 1, N: 2, S: int32(i), D: int32(i % 32)})
	}
}

func TestSpillWriteFaultSurfacesTypedError(t *testing.T) {
	defer fault.Reset()
	if err := fault.Configure("dstruct.spill.write=error", 1); err != nil {
		t.Fatal(err)
	}
	sd, err := NewSpillDict(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	fillSpill(t, sd, 64)
	if err := sd.Err(); !errors.Is(err, ErrSpill) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err() = %v, want ErrSpill wrapping fault.ErrInjected", err)
	}
	// A failed dictionary refuses further work instead of corrupting state.
	if _, ok := sd.Remove(); ok {
		t.Fatal("Remove succeeded on a failed dictionary")
	}
}

func TestSpillLoadFaultSurfacesTypedError(t *testing.T) {
	defer fault.Reset()
	sd, err := NewSpillDict(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	fillSpill(t, sd, 64)
	if sd.Spills() == 0 {
		t.Fatal("nothing spilled; test needs on-disk buckets")
	}
	if err := fault.Configure("dstruct.spill.load=error", 1); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sd.Remove(); !ok {
			break
		}
	}
	if err := sd.Err(); !errors.Is(err, ErrSpill) {
		t.Fatalf("Err() = %v, want ErrSpill", err)
	}
}

func TestSpillCloseRemovesDirDespiteRemoveFault(t *testing.T) {
	defer fault.Reset()
	parent := t.TempDir()
	sd, err := NewSpillDict(8, parent)
	if err != nil {
		t.Fatal(err)
	}
	fillSpill(t, sd, 64)
	// Per-file removal fails (typed error must surface), but Close's
	// directory sweep still reclaims everything.
	if err := fault.Configure("dstruct.spill.remove=error", 1); err != nil {
		t.Fatal(err)
	}
	err = sd.Close()
	if !errors.Is(err, ErrSpill) {
		t.Fatalf("Close() = %v, want ErrSpill", err)
	}
	fault.Reset()
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not reclaimed: %v", ents)
	}
}

func TestDeferredWriteFaultSurfacesTypedError(t *testing.T) {
	defer fault.Reset()
	if err := fault.Configure("dstruct.deferred.write=error", 1); err != nil {
		t.Fatal(err)
	}
	df, err := NewDeferredSpill(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	for i := 0; i < 64; i++ {
		df.Add(Tuple{V: 1, N: 2, S: int32(i), D: int32(i % 32)})
	}
	if err := df.Err(); !errors.Is(err, ErrSpill) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err() = %v, want ErrSpill wrapping fault.ErrInjected", err)
	}
}

func TestDeferredResetRecordsCleanupFailure(t *testing.T) {
	defer fault.Reset()
	df, err := NewDeferredSpill(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	for i := 0; i < 64; i++ {
		df.Add(Tuple{V: 1, N: 2, S: int32(i), D: int32(i % 32)})
	}
	if df.Spills() == 0 {
		t.Fatal("nothing spilled; test needs on-disk buckets")
	}
	if err := fault.Configure("dstruct.deferred.remove=error", 1); err != nil {
		t.Fatal(err)
	}
	df.Reset(false)
	if err := df.Err(); !errors.Is(err, ErrSpill) {
		t.Fatalf("Reset dropped the cleanup failure: Err() = %v, want ErrSpill", err)
	}
}

func TestDeferredLoadFaultSurfacesTypedError(t *testing.T) {
	defer fault.Reset()
	df, err := NewDeferredSpill(8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	for i := 0; i < 64; i++ {
		df.Add(Tuple{V: 1, N: 2, S: int32(i), D: int32(i % 32)})
	}
	if df.Spills() == 0 {
		t.Fatal("nothing spilled; test needs on-disk buckets")
	}
	if err := fault.Configure("dstruct.deferred.load=error", 1); err != nil {
		t.Fatal(err)
	}
	df.Drain(1<<30, func(Tuple) {})
	if err := df.Err(); !errors.Is(err, ErrSpill) {
		t.Fatalf("Err() = %v, want ErrSpill", err)
	}
}

func TestSpillFilesNamedForJanitor(t *testing.T) {
	// The serving janitor reclaims orphans by the omega-spill-* /
	// omega-deferred-* prefixes; pin them.
	parent := t.TempDir()
	sd, err := NewSpillDict(8, parent)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	df, err := NewDeferredSpill(8, parent)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	var spill, deferred bool
	for _, e := range ents {
		ok1, _ := filepath.Match("omega-spill-*", e.Name())
		ok2, _ := filepath.Match("omega-deferred-*", e.Name())
		spill = spill || ok1
		deferred = deferred || ok2
	}
	if !spill || !deferred {
		t.Fatalf("missing janitor-recognisable dirs: %v", ents)
	}
}
