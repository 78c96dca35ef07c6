package core

import (
	"fmt"

	"omega/internal/automaton"
	"omega/internal/dstruct"
	"omega/internal/fault"
	"omega/internal/graph"
)

// seed is an initial tuple source for Case 1 of Open: a start node and the
// relaxation cost of reaching it (0 for the constant itself, k·β for a class
// ancestor at k subclass steps).
type seed struct {
	node graph.NodeID
	cost int32
}

// memSampleEvery is the tuple-operation period of byte-accounting samples:
// every this many adds/pops the evaluator recomputes its dstruct footprint,
// pushes the delta into the execution's shared MemGauge and checks the
// watermarks. Small enough that the accounted figure trails real growth by at
// most a few bucket allocations, large enough that the O(buckets) footprint
// walk is noise on the hot path.
const memSampleEvery = 512

// evaluator runs GetNext/Succ (§3.4) for one compiled automaton over one
// graph. It emits answers (v, n, d) in non-decreasing d. A non-negative psi
// caps tuple distances (the §4.3 distance-aware mode); suppressions are
// recorded in pruned so the driver knows whether raising ψ could reveal more.
type evaluator struct {
	g   *graph.Graph
	aut *automaton.Compiled
	r   *run // the execution's governance context; outlives the evaluator

	dr      dstruct.TupleDict
	visited *dstruct.Visited
	answers *dstruct.Answers

	// Case 1 seeds (constant subject), or a stream for Case 3.
	seeds  []seed
	stream *graph.NodeStream
	batch  []graph.NodeID

	// finalAnn is the final-state annotation: nil matches any node
	// (variable object); otherwise it maps each allowed node to the extra
	// cost of accepting it (0 for the constant, k·β for RELAX ancestors).
	finalAnn map[graph.NodeID]int32

	// scratch backs neighboursByEdge's multi-label / Both / TargetClass
	// results, reused across expansions so the steady path allocates only
	// when the frontier outgrows every previous one.
	scratch []graph.NodeID

	// state, when non-nil, is the pooled bundle backing dr/visited/answers
	// (and deferred, once armed): finish returns it to the run's pool instead of
	// discarding it, so the next execution inherits the grown capacities.
	state *evalState

	// deferred, when non-nil, parks tuples rejected for exceeding ψ instead
	// of discarding them, so a later resume can re-inject them (incremental
	// distance-aware mode). deferLimit is the largest ψ the driver can ever
	// reach: tuples beyond it are unreachable in every later phase, so
	// parking them would only burn memory (they are dropped, exactly as the
	// restart reference re-drops them every phase). resumable suppresses the
	// automatic resource release when D_R drains: the driver owns finish()
	// and may raise ψ and continue instead.
	deferred   *dstruct.Deferred
	deferLimit int32
	resumable  bool

	psi        int32 // -1 = unlimited
	pruned     bool
	seeded     bool
	streamDone bool
	released   bool  // finish() has run; dict/deferred resources are gone
	failed     error // terminal evaluation error (sticky)
	closeErr   error // resource-release failure recorded by finish()

	// Byte accounting: memOps counts tuple operations since the last
	// footprint sample, lastMem is this evaluator's slot in the run's gauge.
	memOps  int
	lastMem int64

	stats Stats
}

func newEvaluator(g *graph.Graph, aut *automaton.Compiled, r *run) *evaluator {
	ev := &evaluator{
		g:   g,
		aut: aut,
		r:   r,
		psi: -1,
	}
	opts := &r.opts
	if r.pool != nil {
		ev.state = r.pool.get(opts.NoFinalFirst)
		ev.dr = ev.state.dict
		ev.visited = ev.state.visited
		ev.answers = ev.state.answers
		ev.scratch = ev.state.scratch
		return ev
	}
	ev.visited = dstruct.NewVisited()
	ev.answers = dstruct.NewAnswers()
	switch {
	case opts.SpillThreshold > 0:
		sd, err := dstruct.NewSpillDict(opts.SpillThreshold, opts.SpillDir, opts.NoFinalFirst)
		if err != nil {
			ev.failed = err
			ev.dr = dstruct.NewDict() // placeholder; evaluation fails immediately
		} else {
			ev.dr = sd
		}
	case opts.RefDict:
		ev.dr = dstruct.NewRefDict(opts.NoFinalFirst)
	case opts.NoFinalFirst:
		ev.dr = dstruct.NewDictNoFinalFirst()
	default:
		ev.dr = dstruct.NewDict()
	}
	return ev
}

// finish releases dictionary and deferred-frontier resources (spill files),
// or — for a pooled execution — returns the state bundle to the pool for the
// next request. Evaluation calls it when the answer stream ends or fails, and
// Close calls it when an iterator is abandoned mid-stream; it is idempotent.
//
// A bundle is only recycled when the execution stopped cleanly (exhaustion,
// Close, cancellation, deadline, tuple budget). Any other terminal error —
// spill I/O failure, injected fault, a panic surfaced via Abort — poisons the
// bundle: its structures may have been abandoned mid-mutation, so it is
// discarded and the pool mints a fresh one for the next request. Resource-
// release failures (spill-file removal) are recorded in closeErr, surfaced by
// Close — never silently dropped.
func (ev *evaluator) finish() {
	if ev.released {
		return
	}
	ev.released = true
	// Hand the evaluator's accounted bytes back to the execution's gauge: the
	// structures are about to be released (or recycled into another
	// execution's accounting), so they no longer count against this one. A
	// request that ends before its first sample tick (RELAX Q10 top-100 is
	// 427 tuple operations) would leave the gauge at zero, invisible to the
	// done line and the broker, so it is accounted once here. Accounting only:
	// the watermarks are not checked on the way out, and a gauge that has
	// seen any sample — from this evaluator or another of the request — is
	// left as it is.
	if ev.r.mem.PeakBytes() == 0 {
		ev.r.account(&ev.lastMem, ev.residentBytes())
	}
	ev.r.refund(&ev.lastMem)
	if ev.state != nil {
		st := ev.state
		ev.state = nil
		poisoned := !recyclable(ev.failed)
		// A soft-watermark escalation may have armed disk spilling on the
		// pooled deferred frontier mid-run; the pool only recycles in-memory
		// frontiers, so the spill state is released here. A cleanup failure
		// poisons the bundle — it must not re-enter circulation over leaked
		// files — and surfaces through Close like any release failure.
		if derr := st.deferred.DisarmSpill(); derr != nil {
			poisoned = true
			if ev.closeErr == nil {
				ev.closeErr = derr
			}
		}
		// Fold the frontier's spill I/O accounting (including the removals
		// DisarmSpill just performed) into the evaluator's counters before the
		// pointer is severed; Reset zeroes it for the bundle's next tenant.
		if n, b := st.deferred.IOStats(); n > 0 {
			ev.stats.SpillIONanos += n
			ev.stats.SpillIOBytes += b
		}
		if !poisoned {
			// The scratch and batch buffers may have grown; hand the grown
			// capacity back with the bundle.
			st.scratch = ev.scratch[:0]
			if ev.batch != nil {
				st.batch = ev.batch
			}
		}
		// Pointers are severed so no code path on this evaluator can touch
		// state now owned by another execution (or, when poisoned, state that
		// must die with this one).
		ev.dr, ev.visited, ev.answers, ev.deferred = nil, nil, nil, nil
		ev.scratch, ev.batch, ev.stream = nil, nil, nil
		if poisoned {
			ev.r.pool.poison()
		} else {
			ev.r.pool.put(st)
		}
		return
	}
	if ev.dr != nil {
		if err := ev.dr.Close(); err != nil && ev.closeErr == nil {
			ev.closeErr = err
		}
		if io, ok := ev.dr.(ioStatser); ok {
			n, b := io.IOStats()
			ev.stats.SpillIONanos += n
			ev.stats.SpillIOBytes += b
		}
	}
	if ev.deferred != nil {
		if err := ev.deferred.Close(); err != nil && ev.closeErr == nil {
			ev.closeErr = err
		}
		n, b := ev.deferred.IOStats()
		ev.stats.SpillIONanos += n
		ev.stats.SpillIOBytes += b
	}
}

// ioStatser is implemented by the disk-backed dstruct structures (SpillDict,
// Deferred); the plain in-memory dictionaries do no I/O and don't implement
// it.
type ioStatser interface {
	IOStats() (nanos, bytes int64)
}

// Close releases the evaluator's resources deterministically, reporting any
// resource-release failure (spill-file removal) as a typed ErrSpill. Safe to
// call more than once and safe to interleave with Next: a closed evaluator
// keeps reporting ErrClosed (or its earlier terminal error) from Next.
func (ev *evaluator) Close() error {
	ev.failed = closedErr(ev.failed)
	ev.finish()
	return ev.closeErr
}

// Abort terminates the evaluator with a caller-supplied error — the panic-
// isolation path: after a panic unwound through Next, internal state is
// untrustworthy, so the terminal error is recorded (making the pooled bundle
// non-recyclable) and resources are released.
func (ev *evaluator) Abort(err error) {
	ev.failed = abortErr(ev.failed, err)
	ev.finish()
}

// checkCtx reports the typed cancellation error once the run is done,
// recording it as the terminal failure.
func (ev *evaluator) checkCtx() error {
	if err := ev.r.done(); err != nil {
		if ev.failed == nil {
			ev.failed = err
		}
		return ev.failed
	}
	return nil
}

// sampleMem recomputes the evaluator's dstruct footprint, charges it to the
// run and responds to the watermarks: over the hard watermark the evaluator
// fails with the typed ErrMemBudget; over the soft one it degrades to disk
// (spill escalation) and keeps streaming.
func (ev *evaluator) sampleMem() {
	ev.memOps = 0
	if err := ev.r.charge(&ev.lastMem, ev.residentBytes()); err != nil {
		if ev.failed == nil {
			ev.failed = err
		}
		return
	}
	if ev.r.overSoft() {
		ev.escalate()
	}
}

// residentBytes sums the approximate resident footprint of every structure
// this evaluator owns. Capacity-based: it measures what the process holds,
// which is what spilling actually sheds.
func (ev *evaluator) residentBytes() int64 {
	n := ev.dr.Bytes() + ev.visited.Bytes() + ev.answers.Bytes()
	if ev.deferred != nil {
		n += ev.deferred.Bytes()
	}
	return n + int64(cap(ev.scratch)+cap(ev.batch))*4
}

// escalate is the soft-watermark response: arm or tighten disk spilling on
// the structures that support it (the deferred frontier and a spilling D_R),
// trading resident bytes for disk so the execution keeps streaming. A plain
// in-memory D_R has no disk path — for it only the hard watermark protects.
// Escalation I/O failures surface through the structures' sticky errors.
func (ev *evaluator) escalate() {
	escalated := false
	if sd, ok := ev.dr.(*dstruct.SpillDict); ok {
		sd.Lower()
		escalated = true
		if err := sd.Err(); err != nil && ev.failed == nil {
			ev.failed = err
		}
	}
	if ev.deferred != nil && ev.deferred.Len() > 0 {
		if err := ev.deferred.Escalate(ev.r.opts.SpillDir); err != nil {
			if ev.failed == nil {
				ev.failed = err
			}
		} else {
			escalated = true
		}
	}
	if escalated {
		ev.stats.SpillEscalations++
		ev.r.mem.escalations.Add(1)
	}
}

// reject handles a tuple whose distance exceeds the current ψ: the pruned
// flag tells the driver a higher ψ could reveal more, and in resumable mode
// the tuple is parked for re-injection instead of being recomputed from
// scratch next phase — unless no reachable phase could ever admit it.
func (ev *evaluator) reject(t dstruct.Tuple) {
	ev.pruned = true
	if ev.deferred != nil && t.D <= ev.deferLimit {
		ev.deferred.Add(t)
		ev.stats.Deferred++
		if ev.memOps++; ev.memOps >= memSampleEvery {
			ev.sampleMem()
		}
	}
}

// resume raises ψ and re-injects every deferred tuple the new bound admits —
// exactly the D_R contents a restarted phase would have rebuilt, minus all
// the recomputation (for the bucket-queue Dict the re-injection is a slice
// adoption, not per-tuple work). The caller must only invoke it after Next
// has reported exhaustion.
func (ev *evaluator) resume(psi int32) {
	ev.psi = psi
	n := ev.dr.Inject(ev.deferred, psi)
	ev.stats.TuplesAdded += n
	ev.stats.Reinjected += n
	if err := ev.deferred.Err(); err != nil && ev.failed == nil {
		ev.failed = err
	}
	if ev.r.overBudget(ev.stats.TuplesAdded) && ev.failed == nil {
		ev.failed = ErrTupleBudget
	}
	// Re-injection adopts whole buckets without passing through add(); take a
	// sample so a large phase step is accounted promptly.
	ev.sampleMem()
}

// add inserts a tuple, enforcing the tuple budget (every insertion into D_R
// goes through add or resume, so stats.TuplesAdded is its lifetime count).
func (ev *evaluator) add(t dstruct.Tuple) {
	if ev.failed != nil {
		return
	}
	if ev.r.overBudget(ev.stats.TuplesAdded + 1) {
		ev.failed = ErrTupleBudget
		return
	}
	ev.dr.Add(t)
	ev.stats.TuplesAdded++
	if ev.memOps++; ev.memOps >= memSampleEvery {
		ev.sampleMem()
	}
}

// seedInitial performs the D_R initialisation of Open (§3.3).
func (ev *evaluator) seedInitial() {
	ev.seeded = true
	if ev.stream != nil {
		ev.refill()
		return
	}
	// Case 1: the paper adds ancestors most-specific-first; with the LIFO
	// lists of D_R that means inserting in reverse so the most specific
	// (cheapest) seed pops first when costs tie.
	for i := len(ev.seeds) - 1; i >= 0; i-- {
		s := ev.seeds[i]
		t := dstruct.Tuple{V: s.node, N: s.node, S: ev.aut.Start, D: s.cost}
		if ev.psi >= 0 && s.cost > ev.psi {
			ev.reject(t)
			continue
		}
		ev.add(t)
	}
}

// refill pulls the next batch of initial nodes from the Case 3 coroutine
// (GetNext lines 15–17).
func (ev *evaluator) refill() {
	if ev.stream == nil || ev.streamDone {
		return
	}
	if ev.batch == nil {
		// A batch larger than the node set buys nothing: NumNodes()+1 already
		// seeds every initial node up front.
		size := min(ev.r.opts.BatchSize, ev.g.NumNodes()+1)
		if ev.state != nil && cap(ev.state.batch) >= size {
			ev.batch = ev.state.batch[:size]
		} else {
			ev.batch = make([]graph.NodeID, size)
		}
	}
	n := ev.stream.Next(ev.batch)
	if n == 0 {
		ev.streamDone = true
		return
	}
	for _, node := range ev.batch[:n] {
		ev.add(dstruct.Tuple{V: node, N: node, S: ev.aut.Start})
	}
}

// annCost returns the extra cost of accepting node n at a final state, and
// whether the final annotation matches n at all.
func (ev *evaluator) annCost(n graph.NodeID) (int32, bool) {
	if ev.finalAnn == nil {
		return 0, true
	}
	c, ok := ev.finalAnn[n]
	return c, ok
}

// Next is GetNext (§3.4): it returns the next answer in non-decreasing
// distance, or ok=false when no more answers exist (within ψ, if set).
func (ev *evaluator) Next() (Answer, bool, error) {
	if ev.released {
		// The run is over and the backing state may already be serving
		// another execution (pooled mode); keep reporting the terminal
		// condition without touching it.
		return Answer{}, false, ev.failed
	}
	if ev.failed != nil {
		ev.finish()
		return Answer{}, false, ev.failed
	}
	if err := ev.checkCtx(); err != nil {
		ev.finish()
		return Answer{}, false, err
	}
	// Failpoint: one evaluation per emitted answer. An injected error takes
	// the sticky-error path a real evaluation failure would; an injected
	// panic unwinds through the caller to the serving layer's recover.
	if fault.Enabled() {
		if err := fault.Inject("core.row"); err != nil {
			ev.failed = fmt.Errorf("core: evaluation failed: %w", err)
			ev.finish()
			return Answer{}, false, ev.failed
		}
	}
	if !ev.seeded {
		ev.seedInitial()
	}
	for {
		if ev.failed != nil {
			ev.finish()
			return Answer{}, false, ev.failed
		}
		// Re-check cancellation periodically inside the pop loop so a long
		// stretch with no emitted answer still honours the context promptly.
		if ev.stats.TuplesPopped&0x0FFF == 0 {
			if err := ev.checkCtx(); err != nil {
				ev.finish()
				return Answer{}, false, err
			}
		}
		// Lines 15–17: when no distance-0 tuples remain and more initial
		// nodes are available, pull the next batch. Required for ranked
		// emission: any unseeded node could still yield a distance-0 answer.
		if ev.stream != nil && !ev.streamDone {
			if md, ok := ev.dr.MinDistance(); !ok || md > 0 {
				ev.refill()
				continue
			}
		}
		if ev.memOps++; ev.memOps >= memSampleEvery {
			if ev.sampleMem(); ev.failed != nil {
				ev.finish()
				return Answer{}, false, ev.failed
			}
		}
		t, ok := ev.dr.Remove()
		if !ok {
			if err := ev.dr.Err(); err != nil {
				ev.failed = err
				ev.finish()
				return Answer{}, false, err
			}
			// In resumable mode the driver may raise ψ and re-inject
			// deferred tuples, so D_R must stay open; it owns finish().
			if !ev.resumable {
				ev.finish()
			}
			return Answer{}, false, nil
		}
		ev.stats.TuplesPopped++

		if t.Final {
			if ev.answers.Add(t.V, t.N, t.D) {
				return Answer{Src: t.V, Dst: t.N, Dist: t.D}, true, nil
			}
			continue
		}
		if !ev.visited.Add(t.V, t.N, t.S) {
			continue
		}
		ev.expand(t)
		if w, final := ev.aut.IsFinal(t.S); final {
			if extra, match := ev.annCost(t.N); match && !ev.answers.Has(t.V, t.N) {
				d := t.D + w + extra
				ft := dstruct.Tuple{V: t.V, N: t.N, S: t.S, D: d, Final: true}
				if ev.psi >= 0 && d > ev.psi {
					ev.reject(ft)
				} else {
					ev.add(ft)
				}
			}
		}
	}
}

// expand is Succ (§3.4): follow every compiled transition of state t.S from
// node t.N, reusing the neighbour set U across runs of identical labels.
func (ev *evaluator) expand(t dstruct.Tuple) {
	var cache []graph.NodeID
	cacheGroup := int32(-1)
	states := ev.aut.NextStates(t.S)
	for i := range states {
		tr := &states[i]
		var u []graph.NodeID
		if !ev.r.opts.NoSuccCache && tr.Group == cacheGroup && cacheGroup >= 0 {
			u = cache
			ev.stats.CacheHits++
		} else {
			u = ev.neighboursByEdge(t.N, tr)
			cache, cacheGroup = u, tr.Group
		}
		for _, m := range u {
			if ev.visited.Contains(t.V, m, tr.To) {
				continue
			}
			d := t.D + tr.Cost
			if ev.psi >= 0 && d > ev.psi {
				ev.reject(dstruct.Tuple{V: t.V, N: m, S: tr.To, D: d})
				continue
			}
			ev.add(dstruct.Tuple{V: t.V, N: m, S: tr.To, D: d})
		}
	}
	ev.stats.VisitedSize = ev.visited.Len()
}

// neighboursByEdge retrieves the neighbours of n reachable over the
// transition's label set and direction (§3.4): for a wildcard it retrieves
// all incident edges (the generic 'edge' type plus type edges of §3.2); a
// TargetClass constraint keeps only the constrained landing node. The common
// single-label Out/In case aliases the graph's CSR storage directly; every
// other shape is assembled in the evaluator's scratch buffer, so the steady
// path is allocation-free either way. The returned slice is valid until the
// next call.
func (ev *evaluator) neighboursByEdge(n graph.NodeID, tr *automaton.CTrans) []graph.NodeID {
	ev.stats.NeighborCalls++
	if tr.Kind == automaton.Sym && len(tr.Labels) == 1 && tr.Dir != graph.Both &&
		tr.Target == graph.InvalidNode {
		return ev.g.Neighbors(n, tr.Labels[0], tr.Dir)
	}
	out := ev.scratch[:0]
	switch tr.Kind {
	case automaton.Sym:
		for _, l := range tr.Labels {
			if tr.Dir == graph.Both {
				out = ev.g.AppendNeighbors(out, n, l, graph.Out)
				out = ev.g.AppendNeighbors(out, n, l, graph.In)
			} else {
				out = ev.g.AppendNeighbors(out, n, l, tr.Dir)
			}
		}
	case automaton.Any:
		out = ev.g.AppendIncident(out, n, tr.Dir)
	}
	if tr.Target != graph.InvalidNode {
		kept := out[:0]
		for _, m := range out {
			if m == tr.Target {
				kept = append(kept, m)
			}
		}
		out = kept
	}
	ev.scratch = out
	return out
}

// Stats implements Iterator.
func (ev *evaluator) Stats() Stats {
	s := ev.stats
	s.Phases = 1
	// The gauge is shared by every evaluator of the execution, so the peak is
	// execution-wide; aggregation takes the max, not the sum.
	s.MemPeakBytes = ev.r.mem.PeakBytes()
	// Before finish() folds them in (and severs the pointers), the spill I/O
	// counters live on the structures themselves.
	if io, ok := ev.dr.(ioStatser); ok {
		n, b := io.IOStats()
		s.SpillIONanos += n
		s.SpillIOBytes += b
	}
	if ev.deferred != nil {
		n, b := ev.deferred.IOStats()
		s.SpillIONanos += n
		s.SpillIOBytes += b
	}
	return s
}
