package serve

import (
	"container/list"
	"sync"

	"omega"
)

// PlanCache is an LRU cache of prepared queries keyed by query text plus
// mode override: the serving analogue of a prepared-statement cache. The
// first request for a (text, mode) pair pays parse + compile once; every
// subsequent request executes the cached immutable plan, so the steady-state
// request path is Exec-only. Concurrent first requests for the same key may
// each compile (a miss costs well under a millisecond); the first to finish
// is cached and the others return it.
type PlanCache struct {
	eng *omega.Engine
	max int

	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	hits     int64
	misses   int64
	evicted  int64
	failures int64
}

// planEntry is one cache slot.
type planEntry struct {
	key string
	pq  *omega.PreparedQuery
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Failures  int64 `json:"failures"` // compilations that errored (not cached)
}

// NewPlanCache returns a cache over eng retaining at most max plans
// (0 picks a default of 128).
func NewPlanCache(eng *omega.Engine, max int) *PlanCache {
	if max <= 0 {
		max = 128
	}
	return &PlanCache{
		eng:     eng,
		max:     max,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// cacheKey separates the mode override from the query text with a byte that
// cannot occur in either.
func cacheKey(text string, mode *omega.Mode) string {
	if mode == nil {
		return "\x00" + text
	}
	return mode.String() + "\x00" + text
}

// Get returns the prepared plan for (text, mode), compiling and caching it on
// first use. mode == nil prepares the query as written; otherwise every
// conjunct's mode is overridden (the study's exact/APPROX/RELAX sweeps).
// Parse and compile errors are returned but never cached: a mistyped query
// must not poison the slot for its corrected retry.
func (c *PlanCache) Get(text string, mode *omega.Mode) (*omega.PreparedQuery, error) {
	pq, _, err := c.Lookup(text, mode)
	return pq, err
}

// Lookup is Get with a hit report: hit is true when the plan was already
// cached, false when this call compiled. The serving layer uses it to
// attribute plan-span time to lookup versus compile.
func (c *PlanCache) Lookup(text string, mode *omega.Mode) (pq *omega.PreparedQuery, hit bool, err error) {
	key := cacheKey(text, mode)
	if pq := c.lookup(key); pq != nil {
		return pq, true, nil
	}

	// Compile outside the lock; a racing miss on the same key compiles too.
	pq, err = c.compile(text, mode)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if err != nil {
		c.failures++
		return nil, false, err
	}
	if el, ok := c.entries[key]; ok {
		// A racing miss got there first: keep its plan, so every caller
		// shares one instance.
		c.lru.MoveToFront(el)
		return el.Value.(*planEntry).pq, false, nil
	}
	c.entries[key] = c.lru.PushFront(&planEntry{key: key, pq: pq})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*planEntry).key)
		c.evicted++
	}
	return pq, false, nil
}

// lookup returns the cached plan for key (counting a hit), or nil.
func (c *PlanCache) lookup(key string) *omega.PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*planEntry).pq
}

func (c *PlanCache) compile(text string, mode *omega.Mode) (*omega.PreparedQuery, error) {
	q, err := omega.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	if mode != nil {
		for i := range q.Conjuncts {
			q.Conjuncts[i].Mode = *mode
		}
	}
	return c.eng.Prepare(q)
}

// Stats returns a snapshot of the cache's counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Failures:  c.failures,
	}
}
