package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"omega"
)

func TestPlanCacheAmortises(t *testing.T) {
	eng := chainEngine(t, 10)
	c := NewPlanCache(eng, 8)

	p1, err := c.Get("(?X) <- (nAa, knows+, ?X)", nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get("(?X) <- (nAa, knows+, ?X)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeated Get compiled a second plan")
	}
	// A mode override is a distinct plan.
	p3, err := c.Get("(?X) <- (nAa, knows+, ?X)", omega.ModeOverride(omega.Approx))
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("mode override shares the base plan slot")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 entries", st)
	}

	// The cached plan works.
	rows, err := p1.Exec(context.Background(), omega.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.Collect(0)
	rows.Close()
	if err != nil || len(got) == 0 {
		t.Fatalf("cached plan execution: %d rows, err %v", len(got), err)
	}
}

func TestPlanCacheEvictsLRU(t *testing.T) {
	eng := chainEngine(t, 6)
	c := NewPlanCache(eng, 2)
	queries := []string{
		"(?X) <- (nAa, knows, ?X)",
		"(?X) <- (nAb, knows, ?X)",
		"(?X) <- (nAc, knows, ?X)",
	}
	for _, q := range queries {
		if _, err := c.Get(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// The oldest entry was evicted: re-fetching it is a miss.
	if _, err := c.Get(queries[0], nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (LRU victim recompiled)", st.Misses)
	}
}

func TestPlanCacheErrorsNotCached(t *testing.T) {
	eng := chainEngine(t, 4)
	c := NewPlanCache(eng, 4)
	if _, err := c.Get("this is not a query", nil); err == nil {
		t.Fatal("bad query compiled")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Failures != 1 {
		t.Fatalf("stats = %+v, want 0 entries / 1 failure", st)
	}
	// The slot is free for a corrected retry.
	if _, err := c.Get("(?X) <- (nAa, knows, ?X)", nil); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheConcurrentFirstUse: concurrent first Gets of one key may each
// compile, but every one succeeds, one plan is cached, and a later Get
// returns it.
func TestPlanCacheConcurrentFirstUse(t *testing.T) {
	eng := chainEngine(t, 12)
	c := NewPlanCache(eng, 8)
	const (
		workers = 16
		text    = "(?X, ?Y) <- APPROX (?X, knows+, ?Y)"
	)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Get(text, nil); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 1 || st.Misses < 1 || st.Misses > workers {
		t.Fatalf("stats = %+v, want 1 entry and 1..%d misses", st, workers)
	}
	cached := c.entries[cacheKey(text, nil)].Value.(*planEntry).pq
	if pq, err := c.Get(text, nil); err != nil || pq != cached {
		t.Fatalf("later Get = %p, %v; want the cached plan %p", pq, err, cached)
	}
}

// TestPlanCacheKeying: distinct texts and distinct modes never collide.
func TestPlanCacheKeying(t *testing.T) {
	eng := chainEngine(t, 6)
	c := NewPlanCache(eng, 16)
	seen := map[*omega.PreparedQuery]string{}
	for _, text := range []string{"(?X) <- (nAa, knows, ?X)", "(?X) <- (nAb, knows, ?X)"} {
		for _, mode := range []*omega.Mode{nil, omega.ModeOverride(omega.Exact), omega.ModeOverride(omega.Approx)} {
			pq, err := c.Get(text, mode)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%v", text, mode)
			if prev, dup := seen[pq]; dup {
				t.Fatalf("plan for %s aliases plan for %s", key, prev)
			}
			seen[pq] = key
		}
	}
}
