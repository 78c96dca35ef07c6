package core

import (
	"sync"

	"omega/internal/bitset"
	"omega/internal/dstruct"
	"omega/internal/graph"
)

// This file implements the evaluator-state pool of the serving layer: the
// per-execution structures (D_R, the visited table and the Case 1 seed bitmap,
// the answer registry, the Case 3 seen bitmap and the scratch buffers) dominate
// the allocation profile of a steady-state request — not because they are
// created, but because they are *grown*: a fresh open-addressed table starts
// at 64 slots and rehash-copies its way up on every request, and a fresh D_R
// re-extends its bucket array the same way. EvalPool recycles the grown
// structures across executions instead: each gets a used bundle, Resets it
// and hands it to the next evaluator. The reset allocates nothing and costs
// what the previous tenant touched, not what the bundle holds: the visited
// table moves to its next generation, the seed bitmap clears the pages it
// touched when its next Case 1 tenant reshapes it, the answer registry blanks
// the pairs it stored, D_R truncates one slice per distance.
// Nothing is ever cleared to make room, so a bundle keeps the capacity of the
// largest run it has served (at most 8/3 of that run's population per table)
// until the byte cap below discards it; PoolStats.IdleBytes shows what the
// free list holds. Pooled and fresh executions are observationally identical
// — the structures expose only membership and ordered pops, neither of which
// depends on capacity — which the corpus differential tests pin.

// evalState is one recyclable bundle of per-evaluator mutable state. It is
// graph- and query-agnostic: everything in it is keyed by integer IDs, so one
// pool may serve any number of prepared queries over any number of graphs.
type evalState struct {
	dict        *dstruct.Dict
	visited     *dstruct.Visited     // Case 3 visited_R
	seedVisited *dstruct.SeedVisited // Case 1 visited_R; shaped and reset by its evaluator
	answers     *dstruct.Answers
	seen        *bitset.Set // Case 3 stream de-dup; lazily created
	goal        *goalSearch // Z of wildcard continuations; created on first use
	scratch     []graph.NodeID
	batch       []graph.NodeID

	idleBytes int64 // bytes() as of the put that parked the bundle on the free list
}

// bytes returns the bundle's approximate resident footprint — the retention
// figure the pool's byte cap compares against.
func (st *evalState) bytes() int64 {
	n := st.dict.Bytes() + st.visited.Bytes() + st.seedVisited.Bytes() + st.answers.Bytes()
	n += int64(cap(st.scratch)+cap(st.batch)) * 4
	if st.seen != nil {
		n += int64(st.seen.Words()) * 8
	}
	if st.goal != nil {
		n += st.goal.bytes()
	}
	return n
}

// PoolStats reports pool effectiveness counters.
type PoolStats struct {
	// Gets counts state acquisitions; Reuses of them were served from the
	// free list and Misses allocated fresh bundles.
	Gets   int64 `json:"gets"`
	Reuses int64 `json:"reuses"`
	Misses int64 `json:"misses"`
	// Puts counts states returned by finished executions; Discarded of them
	// were dropped instead of recycled — because the free list was at
	// capacity, or because the bundle outgrew the pool's byte cap.
	Puts      int64 `json:"puts"`
	Discarded int64 `json:"discarded"`
	// Oversized counts the subset of Discarded dropped by the byte cap: one
	// giant query must not permanently bloat a pooled slot (see
	// SetBundleCapBytes).
	Oversized int64 `json:"oversized"`
	// Poisoned counts states discarded because their execution terminated in
	// an error or panic: such a bundle may hold structures abandoned
	// mid-mutation, so it is never recycled (see evaluator.finish).
	Poisoned int64 `json:"poisoned"`
	// Idle is the current free-list population and IdleBytes the capacity
	// those bundles retain — memory the process holds between requests, which
	// no reset ever gives back.
	Idle      int   `json:"idle"`
	IdleBytes int64 `json:"idle_bytes"`
}

// EvalPool recycles evaluator state across executions. It is safe for
// concurrent use by any number of goroutines; a state acquired by one
// execution is owned exclusively until that execution finishes (exhaustion,
// error, or Close), at which point it returns to the pool.
//
// Pooling engages per execution via ExecOptions.Pool.
type EvalPool struct {
	mu       sync.Mutex
	free     []*evalState
	max      int
	capBytes int64
	stats    PoolStats
}

// defaultBundleCapBytes bounds the footprint of a recycled bundle: a bundle
// whose reset capacity exceeds the cap is discarded instead of pooled, so one
// giant query cannot permanently pin its high-water memory in every slot it
// cycles through. 64 MiB covers every study query: the largest bundle of the
// benchmark's approx_topk rotation (APPROX top-100 on L3) holds about 6.5 MB,
// its acct_peak_mb, entries parked above ψ included, because Succ pushes one
// continuation per costed transition rather than one tuple per successor and
// D_R stores an entry in 16 bytes, so every bundle of that rotation is
// recycled.
const defaultBundleCapBytes = 64 << 20

// NewEvalPool returns a pool retaining at most max idle states (0 picks a
// default of 64). Size it to the peak number of concurrently executing
// conjunct evaluators — for a serving workload, roughly the worker count
// times the conjuncts per query.
func NewEvalPool(max int) *EvalPool {
	if max <= 0 {
		max = 64
	}
	return &EvalPool{max: max, capBytes: defaultBundleCapBytes}
}

// SetBundleCapBytes sets the byte cap above which a returned bundle is
// discarded rather than recycled (PoolStats.Oversized counts the discards).
// 0 restores the default cap; negative disables the cap entirely. Call it
// before serving traffic — the cap is read on every put, and concurrent
// mutation is safe but makes the applied cap indeterminate per request.
func (p *EvalPool) SetBundleCapBytes(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n == 0 {
		n = defaultBundleCapBytes
	}
	p.capBytes = n
}

// Stats returns a snapshot of the pool's counters.
func (p *EvalPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Idle = len(p.free)
	return s
}

// get acquires a reset state bundle, creating a fresh one when the free list
// is empty.
func (p *EvalPool) get() *evalState {
	p.mu.Lock()
	p.stats.Gets++
	var st *evalState
	if n := len(p.free); n > 0 {
		st = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.stats.Reuses++
		p.stats.IdleBytes -= st.idleBytes
	} else {
		p.stats.Misses++
	}
	p.mu.Unlock()
	if st == nil {
		return &evalState{
			dict:        dstruct.NewDict(),
			visited:     dstruct.NewVisited(),
			seedVisited: new(dstruct.SeedVisited),
			answers:     dstruct.NewAnswers(),
		}
	}
	st.dict.Reset(false)
	st.visited.Reset(0)
	st.answers.Reset(0)
	return st
}

// poison records the discard of a bundle whose execution failed. The bundle
// itself is simply dropped for the GC — a poisoned bundle must never re-enter
// circulation, because a panic or injected failure may have abandoned its
// structures mid-mutation in a state Reset cannot be trusted to repair.
func (p *EvalPool) poison() {
	p.mu.Lock()
	p.stats.Poisoned++
	p.mu.Unlock()
}

// put returns a state bundle to the free list, dropping it when the list is
// at capacity (the bound is what keeps a traffic spike from pinning its peak
// memory forever) or when the bundle outgrew the byte cap (the bound that
// keeps one giant query from pinning its peak memory in a recycled slot).
func (p *EvalPool) put(st *evalState) {
	// Measured outside the lock: the bundle is exclusively owned until it
	// joins the free list.
	footprint := st.bytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if p.capBytes > 0 && footprint > p.capBytes {
		p.stats.Discarded++
		p.stats.Oversized++
		return
	}
	if len(p.free) >= p.max {
		p.stats.Discarded++
		return
	}
	st.idleBytes = footprint
	p.stats.IdleBytes += footprint
	p.free = append(p.free, st)
}
