package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"omega/internal/fault"
	"omega/internal/graph"
	"omega/internal/obs"
)

// fpParShard fires at shard-worker batch boundaries (and once at worker
// start) — the chaos-suite hook for worker-side faults inside the sharded
// ranked fan-out. An injected fault aborts the worker's evaluator (poisoning
// its pooled bundle and refunding its gauge bytes) and fails the whole
// execution with the typed error.
const fpParShard = "par.shard"

const (
	// minShardSources is the per-shard source-population floor: below it the
	// per-shard fixed costs (an evaluator, a channel, a goroutine) dwarf the
	// work, so small populations run serial regardless of Parallelism.
	minShardSources = 32
	// shardBatchSize answers travel per channel send, amortising the
	// synchronisation; shardChanCap batches buffer per shard, bounding how
	// far a worker can run ahead of the merge.
	shardBatchSize = 128
	shardChanCap   = 4
	// ordExhausted sorts a drained shard after every live head.
	ordExhausted = int64(1) << 62
)

// resolveParallelism layers the per-execution worker count over the
// engine-level default and clamps the result to [1, maxParallelism].
func resolveParallelism(exec, eng int) int {
	k := eng
	if exec > 0 {
		k = exec
	}
	if k < 1 {
		k = 1
	}
	if k > maxParallelism {
		k = maxParallelism
	}
	return k
}

// parEligible reports whether this plan's ranked evaluation can be sharded
// without changing the emission: a Case 3 single-automaton plan whose
// operations are all zero-cost (the bulkOK conditions — every answer at
// distance 0), running on the in-memory dictionaries. Then the serial
// emission is a concatenation of per-source closure segments in the stream's
// batch-reversed order, each segment depending only on its own source — so a
// partition of the sources evaluates segments independently and a merge
// keyed on the global source rank reassembles the exact serial byte stream.
// Plans outside this shape (ranked distances, disjunction decomposition,
// spilling or reference dictionaries) run serial, which is trivially
// identical.
func (p *conjunctPlan) parEligible(opts *Options) bool {
	return p.case3 && !p.decompose && len(p.auts) == 1 &&
		opts.SpillThreshold == 0 && !opts.RefDict && p.bulkOK()
}

// parSources returns (computing and caching) the plan's Case 3 source
// population in serial emission order: the node stream drained in evaluator
// batches, each batch reversed — because the serial evaluator seeds a batch
// in stream order and D_R's LIFO lists pop it in reverse. The slice is
// immutable once built; executions share it like the bulk index.
func (p *conjunctPlan) parSources() []graph.NodeID {
	p.parMu.Lock()
	defer p.parMu.Unlock()
	if p.parDone {
		return p.parSrc
	}
	chunk := min(p.opts.BatchSize, p.g.NumNodes()+1)
	st := p.buildStream(p.auts[0], nil)
	buf := make([]graph.NodeID, chunk)
	var out []graph.NodeID
	for {
		n := st.Next(buf)
		if n == 0 {
			break
		}
		for i := n - 1; i >= 0; i-- {
			out = append(out, buf[i])
		}
	}
	p.parSrc, p.parDone = out, true
	return out
}

// newShardEvaluator instantiates an evaluator over one shard's slice of the
// source population. The sources arrive in ascending global emission rank
// and are installed as zero-cost Case 1 seeds: seedInitial inserts them in
// reverse, so D_R's LIFO pops them — and emits their closure segments — in
// exactly the given order.
func (p *conjunctPlan) newShardEvaluator(r *run, srcs []graph.NodeID) *evaluator {
	ev := newEvaluator(p.g, p.auts[0], r)
	ev.finalAnn = p.finalAnn
	ev.seeds = make([]seed, len(srcs))
	for i, n := range srcs {
		ev.seeds[i] = seed{node: n}
	}
	return ev
}

// ordAnswer is one shard answer tagged with its global source rank — the
// merge key that reassembles the serial emission order.
type ordAnswer struct {
	ord int64
	a   Answer
}

// shardState is one shard's consumer-side view: the delivery channel, the
// batch currently being drained, and the worker's final stats/error (written
// before the channel closes, read after).
type shardState struct {
	idx  int
	nsh  int
	srcs []graph.NodeID

	ch   chan []ordAnswer
	cur  []ordAnswer
	pos  int
	head int64 // ord of cur[pos]; ordExhausted once drained

	mu    sync.Mutex
	stats Stats
	err   error
}

// parIterator evaluates an eligible Case 3 plan across per-shard evaluators
// and merges their streams back into the serial emission order. Sharding
// engages lazily on the first Next (Exec stays cheap); populations too small
// to shard fall back to a plain serial evaluator. Merge invariant: every
// shard's stream is ascending in global source rank and the shards partition
// the sources, so repeatedly emitting from the shard with the minimal head
// rank reproduces the serial order exactly.
type parIterator struct {
	plan *conjunctPlan
	r    *run

	parent obs.SpanID // span the shard spans nest under (the conjunct span)

	inner  Iterator // serial fallback when sharding doesn't engage
	shards []*shardState

	wcancel context.CancelFunc
	stop    chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex // guards stopped
	stopped bool

	started   bool
	failed    error
	done      bool
	released  bool
	mergeWait int64
}

func newParIterator(p *conjunctPlan, r *run, parent obs.SpanID) *parIterator {
	return &parIterator{plan: p, r: r, parent: parent}
}

// start partitions the source population round-robin across min(Parallelism,
// len/minShardSources) shards and spawns one worker per shard. Round-robin
// keeps shard loads statistically even and makes the global rank of shard
// i's j-th source simply j*nsh+i.
func (pi *parIterator) start() error {
	pi.started = true
	srcs := pi.plan.parSources()
	nsh := min(len(srcs)/minShardSources, pi.r.opts.Parallelism)
	if nsh < 2 {
		pi.inner = pi.plan.newEvaluator(pi.r, 0, -1)
		return nil
	}
	// The shard evaluators run on a copy of the run whose context the
	// iterator can cancel on its own, to preempt them; gauge, trace and
	// options are the execution's.
	wr := *pi.r
	if wr.ctx == nil {
		wr.ctx = context.Background()
	}
	wr.ctx, pi.wcancel = context.WithCancel(wr.ctx)
	pi.stop = make(chan struct{})
	pi.shards = make([]*shardState, nsh)
	for i := range pi.shards {
		pi.shards[i] = &shardState{idx: i, nsh: nsh, ch: make(chan []ordAnswer, shardChanCap)}
	}
	for i, n := range srcs {
		s := pi.shards[i%nsh]
		s.srcs = append(s.srcs, n)
	}
	pi.wg.Add(nsh)
	for _, s := range pi.shards {
		go pi.worker(&wr, s)
	}
	for _, s := range pi.shards {
		if err := pi.advance(s); err != nil {
			return err
		}
	}
	return nil
}

// worker runs one shard's evaluator, delivering rank-tagged answer batches.
// The final stats snapshot and any terminal error are published before the
// deferred channel close, so the consumer observes them happens-after.
func (pi *parIterator) worker(wr *run, s *shardState) {
	defer pi.wg.Done()
	defer close(s.ch)
	tr := wr.trace
	sp := tr.Start(pi.parent, obs.SpanShard)
	tr.SetAttr(sp, "idx", int64(s.idx))
	tr.SetAttr(sp, "sources", int64(len(s.srcs)))
	ev := pi.plan.newShardEvaluator(wr, s.srcs)
	emitted := int64(0)
	defer func() {
		s.mu.Lock()
		s.stats = ev.Stats()
		s.mu.Unlock()
		tr.SetAttr(sp, "answers", emitted)
		tr.End(sp)
	}()
	setErr := func(err error) {
		s.mu.Lock()
		s.err = err
		s.mu.Unlock()
	}
	checkFault := func() bool {
		if !fault.Enabled() {
			return true
		}
		if err := fault.Inject(fpParShard); err != nil {
			err = fmt.Errorf("core: shard %d: %w", s.idx, err)
			ev.Abort(err) // mid-stream kill: poison the pooled bundle
			setErr(err)
			return false
		}
		return true
	}
	if !checkFault() {
		return
	}
	batch := make([]ordAnswer, 0, shardBatchSize)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case s.ch <- batch:
			batch = make([]ordAnswer, 0, shardBatchSize)
			return true
		case <-pi.stop:
			return false
		}
	}
	j := 0
	for {
		a, ok, err := ev.Next()
		if err != nil {
			// The evaluator released itself. A preempted worker (Close, an
			// execution-level failure) exits quietly; a genuine evaluation
			// error is published for the merge to surface.
			if !pi.isStopped() {
				setErr(err)
			}
			return
		}
		if !ok {
			break
		}
		// Per-source contiguity in shard-list order lets the local seed
		// cursor advance monotonically to recover each answer's rank.
		for j < len(s.srcs) && s.srcs[j] != a.Src {
			j++
		}
		if j == len(s.srcs) {
			err := fmt.Errorf("core: shard %d: answer source %d outside shard population", s.idx, a.Src)
			ev.Abort(err)
			setErr(err)
			return
		}
		batch = append(batch, ordAnswer{ord: int64(j)*int64(s.nsh) + int64(s.idx), a: a})
		emitted++
		if len(batch) >= shardBatchSize {
			if !checkFault() {
				return
			}
			if !flush() {
				_ = ev.Close()
				return
			}
		}
	}
	flush()
}

// advance refills s.cur until a head answer is available or the shard is
// drained, accounting merge wait time and surfacing the worker's error.
func (pi *parIterator) advance(s *shardState) error {
	for s.pos >= len(s.cur) {
		t0 := time.Now()
		batch, open := <-s.ch
		pi.mergeWait += time.Since(t0).Nanoseconds()
		if !open {
			s.cur, s.pos = nil, 0
			s.head = ordExhausted
			s.mu.Lock()
			err := s.err
			s.mu.Unlock()
			return err
		}
		s.cur, s.pos = batch, 0
	}
	s.head = s.cur[s.pos].ord
	return nil
}

// Next implements Iterator with the sticky-error contract.
func (pi *parIterator) Next() (Answer, bool, error) {
	if pi.inner != nil {
		return pi.inner.Next()
	}
	if pi.failed != nil {
		return Answer{}, false, pi.failed
	}
	if pi.done {
		return Answer{}, false, nil
	}
	if !pi.started {
		if err := pi.start(); err != nil {
			pi.fail(err)
			return Answer{}, false, pi.failed
		}
		if pi.inner != nil {
			return pi.inner.Next()
		}
	}
	best := -1
	bestOrd := ordExhausted
	for i, s := range pi.shards {
		if s.head < bestOrd {
			bestOrd = s.head
			best = i
		}
	}
	if best < 0 {
		pi.done = true
		pi.wg.Wait() // workers exited with their channels; join for exact stats
		pi.release()
		return Answer{}, false, nil
	}
	s := pi.shards[best]
	a := s.cur[s.pos].a
	s.pos++
	if err := pi.advance(s); err != nil {
		pi.fail(err)
		return Answer{}, false, pi.failed
	}
	return a, true, nil
}

func (pi *parIterator) isStopped() bool {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.stopped
}

// stopWorkers preempts the worker group — cancelling the shard evaluators so
// mid-evaluation workers notice within one pop-loop period — and joins it,
// draining the delivery channels so no worker stays parked on a send.
func (pi *parIterator) stopWorkers() {
	pi.mu.Lock()
	already := pi.stopped
	pi.stopped = true
	pi.mu.Unlock()
	if pi.stop == nil {
		return // sharding never engaged
	}
	if !already {
		pi.wcancel()
		close(pi.stop)
	}
	done := make(chan struct{})
	go func() {
		for _, s := range pi.shards {
			for range s.ch {
			}
		}
		close(done)
	}()
	pi.wg.Wait()
	<-done
}

func (pi *parIterator) fail(err error) {
	if pi.failed == nil {
		pi.failed = err
	}
	pi.stopWorkers()
	pi.release()
}

func (pi *parIterator) release() {
	if pi.released {
		return
	}
	pi.released = true
	// Worker evaluators release (and account) their own resources on exit;
	// nothing is owned here beyond the drained merge buffers.
	for _, s := range pi.shards {
		s.cur = nil
	}
}

// Close preempts and joins the workers; their evaluators end via
// cancellation, which is a clean (recyclable) stop for pooled bundles.
func (pi *parIterator) Close() error {
	if pi.inner != nil {
		return pi.inner.Close()
	}
	pi.failed = closedErr(pi.failed)
	pi.done = true
	if pi.started {
		pi.stopWorkers()
	}
	pi.release()
	return nil
}

// Abort implements Iterator. Worker evaluators still end via cancellation —
// they were between Next calls, so their pooled state is internally
// consistent and safe to recycle; only the iterator's sticky error carries
// the abort reason.
func (pi *parIterator) Abort(err error) {
	if pi.inner != nil {
		pi.inner.Abort(err)
		return
	}
	pi.failed = abortErr(pi.failed, err)
	pi.done = true
	if pi.started {
		pi.stopWorkers()
	}
	pi.release()
}

// Stats implements Iterator: the sum of the shard evaluators' counters
// (exact once the stream ended; exited workers only while live), plus the
// shard count and merge wait the execution surfaces as Stats.Shards /
// MergeWaitNanos.
func (pi *parIterator) Stats() Stats {
	if pi.inner != nil {
		return pi.inner.Stats()
	}
	var s Stats
	for _, sh := range pi.shards {
		sh.mu.Lock()
		cs := sh.stats
		sh.mu.Unlock()
		s.add(cs)
		s.VisitedSize += cs.VisitedSize
	}
	s.Phases = 1
	s.Shards = len(pi.shards)
	s.MergeWaitNanos = pi.mergeWait
	s.MemPeakBytes = pi.r.mem.PeakBytes()
	return s
}

// prefetchIterator drives an inner conjunct iterator from its own goroutine,
// delivering answers in order through a bounded channel — the concurrent-
// conjunct path: each conjunct of a multi-conjunct execution prefetches
// independently, so the rank join's sequential peeks overlap the conjuncts'
// evaluation instead of serialising it. Order within the conjunct is
// preserved exactly, so join output is byte-identical to the serial case.
type prefetchIterator struct {
	it Iterator

	ch   chan []prefetched
	stop chan struct{}
	wg   sync.WaitGroup

	cur []prefetched
	pos int

	mu      sync.Mutex
	stats   Stats
	stopped bool

	started bool
	failed  error
	done    bool
}

// prefetched is one buffered Next result; the terminal entry carries ok=false
// with the stream's final error (nil on exhaustion).
type prefetched struct {
	a   Answer
	ok  bool
	err error
}

const (
	prefetchBatch   = 64
	prefetchChanCap = 4
)

func newPrefetchIterator(it Iterator) *prefetchIterator {
	return &prefetchIterator{
		it:   it,
		ch:   make(chan []prefetched, prefetchChanCap),
		stop: make(chan struct{}),
	}
}

func (pf *prefetchIterator) start() {
	pf.started = true
	pf.wg.Add(1)
	go func() {
		defer pf.wg.Done()
		defer close(pf.ch)
		batch := make([]prefetched, 0, prefetchBatch)
		snap := func() {
			st := pf.it.Stats()
			pf.mu.Lock()
			pf.stats = st
			pf.mu.Unlock()
		}
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			snap()
			select {
			case pf.ch <- batch:
				batch = make([]prefetched, 0, prefetchBatch)
				return true
			case <-pf.stop:
				return false
			}
		}
		for {
			a, ok, err := pf.it.Next()
			batch = append(batch, prefetched{a: a, ok: ok, err: err})
			if !ok || err != nil {
				flush()
				snap()
				return
			}
			if len(batch) >= prefetchBatch {
				if !flush() {
					return
				}
			}
		}
	}()
}

// Next implements Iterator, replaying the inner stream in order.
func (pf *prefetchIterator) Next() (Answer, bool, error) {
	if pf.failed != nil {
		return Answer{}, false, pf.failed
	}
	if pf.done {
		return Answer{}, false, nil
	}
	if !pf.started {
		pf.start()
	}
	for pf.pos >= len(pf.cur) {
		batch, open := <-pf.ch
		if !open {
			// The worker only closes without a terminal entry when stopped.
			pf.done = true
			return Answer{}, false, nil
		}
		pf.cur, pf.pos = batch, 0
	}
	p := pf.cur[pf.pos]
	pf.pos++
	if p.err != nil {
		pf.failed = p.err
		pf.stopWorker()
		return Answer{}, false, pf.failed
	}
	if !p.ok {
		pf.done = true
		pf.stopWorker()
		return Answer{}, false, nil
	}
	return p.a, true, nil
}

func (pf *prefetchIterator) stopWorker() {
	pf.mu.Lock()
	already := pf.stopped
	pf.stopped = true
	pf.mu.Unlock()
	if !already {
		close(pf.stop)
	}
	done := make(chan struct{})
	go func() {
		for range pf.ch {
		}
		close(done)
	}()
	pf.wg.Wait()
	<-done
}

// Close stops the prefetch worker, then closes the inner iterator (whose
// Close is only safe once the worker no longer calls Next on it).
func (pf *prefetchIterator) Close() error {
	pf.failed = closedErr(pf.failed)
	if pf.started {
		pf.stopWorker()
	}
	return pf.it.Close()
}

// Abort implements Iterator with the same join-before-touch discipline.
func (pf *prefetchIterator) Abort(err error) {
	pf.failed = abortErr(pf.failed, err)
	if pf.started {
		pf.stopWorker()
	}
	pf.it.Abort(err)
}

// Stats implements Iterator: the worker's latest snapshot while live
// (refreshed per batch), the inner iterator's final counters once joined.
func (pf *prefetchIterator) Stats() Stats {
	pf.mu.Lock()
	stopped := pf.stopped
	snap := pf.stats
	pf.mu.Unlock()
	if !pf.started || stopped || pf.done {
		return pf.it.Stats()
	}
	return snap
}
