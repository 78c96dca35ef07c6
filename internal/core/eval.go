package core

import (
	"fmt"
	"math"

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
// graph. It emits answers (v, n, d) in non-decreasing d. A psi below
// uncapped caps tuple distances (the §4.3 distance-aware mode): entries
// beyond it park in D_R above its pop ceiling ψ, where the driver reads
// whether a higher ψ could reveal more.
type evaluator struct {
	g   *graph.Graph
	aut *automaton.Compiled
	r   *run // the execution's governance context; outlives the evaluator

	dr *dstruct.Dict
	// visited_R: a Case 1 evaluator, whose v is always a seed, marks
	// (v, n, s) in the seed bitmap; a Case 3 one, whose v ranges over every
	// node, in the hash table. Exactly one is non-nil.
	visited     *dstruct.Visited
	seedVisited *dstruct.SeedVisited
	answers     *dstruct.Answers

	// Case 1 seeds (constant subject), or a stream for Case 3.
	seeds  []seed
	stream *graph.NodeStream
	batch  []graph.NodeID

	// finalAnn is the final-state annotation: nil matches any node
	// (variable object); otherwise it maps each allowed node to the extra
	// cost of accepting it (0 for the constant, k·β for RELAX ancestors).
	finalAnn map[graph.NodeID]int32

	// stride is the number of continuation slots per transition: one per
	// neighbour segment a transition can have, at most an edge label of the
	// graph in each direction (see segment). A continuation's slot is
	// tr.Index·stride + segment.
	stride int32

	// goal, non-nil when the automaton has a costed wildcard transition,
	// decides Z (goal.go) for the plain tuples Next pops and for the two
	// passes of its wildcard continuations.
	goal *goalSearch

	// state is the bundle backing dr/visited/answers/goal/batch until
	// finish hands it back to the run's pool, so the next execution inherits
	// the grown capacities (a run without a pool drops it).
	state *evalState

	// psi is the distance cap, uncapped for none. A capped evaluator parks
	// the entries it rejects for exceeding ψ in D_R above its pop ceiling ψ,
	// so a later resume admits them by raising the ceiling instead of
	// recomputing them, and its driver owns finish(), since it may raise ψ
	// and continue once D_R drains. deferLimit is the largest ψ the driver
	// can ever reach: entries beyond it are unreachable in every later
	// phase, so parking them would only burn memory, and they are dropped.
	psi        int32
	deferLimit int32

	seeded     bool
	streamDone bool
	released   bool  // finish() has run; the dict's resources are gone
	failed     error // terminal evaluation error (sticky)

	// Byte accounting: memOps counts tuple operations since the last
	// footprint sample, lastMem is this evaluator's slot in the run's gauge.
	memOps  int
	lastMem int64

	stats Stats
}

// finish hands the evaluator's accounted bytes back and returns the state
// bundle to the run's pool for the next request.
// Evaluation calls it when the answer stream ends or fails, and Close calls it
// when an iterator is abandoned mid-stream; it is idempotent.
//
// A bundle is only recycled when the execution stopped cleanly (exhaustion,
// Close, cancellation, deadline, tuple budget). Any other terminal error —
// an injected fault, a panic surfaced via Abort, the memory budget — poisons
// the bundle: its structures may have been abandoned mid-mutation, so it is
// discarded and the pool mints a fresh one for the next request.
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
	st := ev.state
	poisoned := !recyclable(ev.failed)
	if !poisoned && ev.batch != nil {
		// The batch buffer may have grown; hand the grown capacity back with
		// the bundle.
		st.batch = ev.batch
	}
	// Pointers are severed so no code path on this evaluator can touch state
	// now owned by another execution (or, when poisoned, state that must die
	// with this one).
	ev.state, ev.dr, ev.visited, ev.seedVisited, ev.answers, ev.goal = nil, nil, nil, nil, nil, nil
	ev.batch, ev.stream = nil, nil
	if poisoned {
		ev.r.pool.poison()
	} else {
		ev.r.pool.put(st)
	}
}

// Close releases the evaluator's resources deterministically. Safe to call
// more than once and safe to interleave with Next: a closed evaluator keeps
// reporting ErrClosed (or its earlier terminal error) from Next.
func (ev *evaluator) Close() error {
	ev.failed = closedErr(ev.failed)
	ev.finish()
	return nil
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

// sampleMem recomputes the evaluator's dstruct footprint and charges it to
// the run: over the hard watermark the evaluator fails with the typed
// ErrMemBudget.
func (ev *evaluator) sampleMem() {
	ev.memOps = 0
	if err := ev.r.charge(&ev.lastMem, ev.residentBytes()); err != nil && ev.failed == nil {
		ev.failed = err
	}
}

// residentBytes sums the approximate resident footprint of every structure
// this evaluator owns. Capacity-based: it measures what the process holds.
func (ev *evaluator) residentBytes() int64 {
	n := ev.dr.Bytes() + ev.answers.Bytes() + int64(cap(ev.batch))*4
	if ev.goal != nil {
		n += ev.goal.bytes()
	}
	if ev.seedVisited != nil {
		return n + ev.seedVisited.Bytes()
	}
	return n + ev.visited.Bytes()
}

// isVisited reports whether (v, n, s) has been processed.
func (ev *evaluator) isVisited(v, n graph.NodeID, s int32) bool {
	if ev.seedVisited != nil {
		return ev.seedVisited.Contains(v, n, s)
	}
	return ev.visited.Contains(v, n, s)
}

// markVisited records (v, n, s) as processed, reporting whether it was new.
func (ev *evaluator) markVisited(v, n graph.NodeID, s int32) bool {
	if ev.seedVisited != nil {
		return ev.seedVisited.Add(v, n, s)
	}
	return ev.visited.Add(v, n, s)
}

// reject handles a tuple or continuation whose distance exceeds the current
// ψ: it is parked in D_R above the ceiling instead of being recomputed from
// scratch next phase — unless no reachable phase could ever admit it.
func (ev *evaluator) reject(t dstruct.Tuple) {
	if t.D <= ev.deferLimit {
		ev.dr.Add(t)
		ev.stats.Deferred++
		if ev.memOps++; ev.memOps >= memSampleEvery {
			ev.sampleMem()
		}
	}
}

// resume raises ψ, and with it D_R's ceiling, re-admitting every parked
// entry the new bound admits — exactly the D_R contents a restarted phase
// would have rebuilt, minus all the recomputation: D_R has drained, so what
// it holds is the parked entries alone, each bucket in generation order.
// Each admitted entry, tuple or continuation, counts one tuple added. The
// caller must only invoke it after Next has reported exhaustion.
func (ev *evaluator) resume(psi int32) {
	ev.psi = psi
	n := ev.dr.SetCeiling(psi)
	ev.stats.TuplesAdded += n
	ev.stats.Reinjected += n
	ev.r.tick(n)
	if ev.r.overBudget(ev.stats.TuplesAdded) && ev.failed == nil {
		ev.failed = ErrTupleBudget
	}
	// Take a sample at every phase step, so the accounted figure is current
	// when the new phase starts.
	ev.sampleMem()
}

// add inserts a tuple or a new continuation, enforcing the tuple budget.
// Every entry entering D_R goes through add or resume, and every successor a
// continuation yields through step, so stats.TuplesAdded counts both; each is
// also one tick of the run's operation counter, as every pop is.
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
	ev.r.tick(1)
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
		if s.cost > ev.psi {
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
		if cap(ev.state.batch) >= size {
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
// distance, or ok=false when no more answers exist within ψ. An uncapped
// evaluator finishes itself when D_R drains; a capped one leaves that to its
// driver, which may raise ψ and call Next again.
//
// With a goal, a popped plain tuple that is not final, not a seed (v, v,
// Start) and not yet visited, at a configuration where Z fails, answers at
// t.D + step at the earliest: it is re-added Lifted at that key (addLifted)
// instead of expanded, and its pop there restores t.D. Z is decided at the
// pop, not the push, as a parked continuation is positioned at its pop: most
// pushed tuples are never popped before the limit is reached, and a push-time
// test would run Z on every sibling before the first pop. A seed is never
// lifted: Case 3 pulls its next batch of seeds when D_R's least key is above
// 0, and lifted seeds would pull batches early. A tuple a continuation yields
// is not tested: a wildcard run's first pass yields only where Z holds, its
// second pass yields what is already a step late, and a symbol run's yields
// keep the place in the pop order that eager Succ gave them.
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
			if ev.psi == uncapped {
				ev.finish()
			}
			return Answer{}, false, nil
		}
		switch {
		case t.IsCont():
			// step counts the pop, unless it drops the continuation.
			if t, ok = ev.step(t); !ok {
				continue
			}
		case t.Has(dstruct.Lifted):
			ev.countPop()
			t.D -= ev.goal.step
		default:
			ev.countPop()
			if ev.goal != nil && !t.Final && (t.N != t.V || t.S != ev.aut.Start) &&
				!ev.isVisited(t.V, t.N, t.S) && !ev.holds(t.N, t.S) {
				ev.addLifted(t)
				continue
			}
		}

		if t.Final {
			if ev.answers.Add(t.V, t.N, t.D) {
				return Answer{Src: t.V, Dst: t.N, Dist: t.D}, true, nil
			}
			continue
		}
		if !ev.markVisited(t.V, t.N, t.S) {
			continue
		}
		ev.expand(t)
		if w, final := ev.aut.IsFinal(t.S); final {
			if extra, match := ev.annCost(t.N); match && !ev.answers.Has(t.V, t.N) {
				d := t.D + w + extra
				ft := dstruct.Tuple{V: t.V, N: t.N, S: t.S, D: d, Final: true}
				if d > ev.psi {
					ev.reject(ft)
				} else {
					ev.add(ft)
				}
			}
		}
	}
}

// expand is Succ (§3.4): follow every compiled transition of state t.S from
// node t.N. A cost-0 transition pushes its successors now, walking n's
// neighbour segments over it in place (see segment); they land on top of D_R
// and pop next, so generating them later would save nothing. The paper's Succ
// reuses the neighbour set U across runs of identical labels because each
// retrieval is a call into the graph store; here a segment is a slice of the
// in-memory CSR or incidence index, so there is nothing to reuse. A run of
// costed transitions pushes one continuation instead (see cont), which
// generates the run's successors one pop at a time, so a hub's thousands of
// insert/substitute successors cost only as many tuples as are popped.
func (ev *evaluator) expand(t dstruct.Tuple) {
	states := ev.aut.NextStates(t.S)
	for i := range states {
		tr := &states[i]
		ev.stats.NeighborCalls++
		if tr.Cost > 0 {
			// One continuation walks a whole run; its last member pushes it.
			if i+1 == len(states) || states[i+1].Prev != tr.Index {
				ev.cont(t.V, t.N, t.D+tr.Cost, tr)
			}
			continue
		}
		// A cost-0 successor is at t.D, which the pop of t admitted under ψ.
		for seg := range ev.segments(tr) {
			for _, m := range ev.segment(t.N, tr, seg) {
				if (tr.Target == graph.InvalidNode || m == tr.Target) && !ev.isVisited(t.V, m, tr.To) {
					ev.add(dstruct.Tuple{V: t.V, N: m, S: tr.To, D: t.D})
				}
			}
		}
	}
	if ev.seedVisited != nil {
		ev.stats.VisitedSize = ev.seedVisited.Len()
	} else {
		ev.stats.VisitedSize = ev.visited.Len()
	}
}

// A continuation stands for the successors of (v, n) over one run of costed
// transitions — a state's consecutive transitions sharing Group and Cost,
// linked by CTrans.Prev — that are still to be generated, all at distance d =
// t.D + tr.Cost: a dstruct.Cont naming v, n, d, the slot tr.Index·stride + seg
// and a cursor, the index of its current successor in neighbour segment seg of
// tr, the member being walked. A wildcard over both directions — every APPROX
// insertion and substitution — has one segment, the node's incidence list, so
// positioning it costs the node's edges rather than a probe of every label in
// each direction. Eager Succ pushed those successors in neighbour order onto
// D_R's LIFO stacks, so they popped last-first; a continuation sits where the
// first of them sat and walks them last-first, skipping the visited ones eager
// would have popped only to discard. Over a run it walks the last member
// first, then each member before it: the members' own continuations sat next
// to each other in one bucket, and the last one was exhausted before the next
// surfaced, since every push its successors made landed above it. A member
// after the first is positioned only when the walk reaches it, so the
// successors visited meanwhile are skipped rather than popped to be discarded.
// What pops and in which order is therefore eager's, minus those discards,
// over every D_R implementation and through parking above ψ and re-admission
// alike. A wildcard continuation parked above ψ is positioned when it pops,
// not when it parks (it carries dstruct.Walk, its cursor past the end of its
// last segment): most parked entries are never admitted, and positioning one
// walks the node's incidence list with a visited probe per neighbour.
// Positioned later, it skips the successors visited in between, which eager
// would have popped to discard too.

// uncapped is the ψ of an evaluator without a distance cap: no distance
// exceeds it, so nothing is rejected and D_R keeps no ceiling.
const uncapped = math.MaxInt32

// unpositioned is the cursor of a continuation that walks from the end of its
// slot's segment when it pops (it carries dstruct.Walk): past the end of
// every segment.
const unpositioned = math.MaxInt32

// contStride is the number of continuation slots per transition of an
// automaton over g: one per neighbour segment, that is at most two per edge
// label.
func contStride(g *graph.Graph) int32 { return 2 * int32(g.NumLabels()) }

// checkContSlots fails with ErrTooManyTransitions when aut has costed
// transitions (so evaluation makes continuations) and its slots,
// transitions × contStride, outnumber dstruct.ContSlots.
func checkContSlots(aut *automaton.Compiled, g *graph.Graph) error {
	if int64(len(aut.Trans))*int64(contStride(g)) <= dstruct.ContSlots {
		return nil
	}
	for i := range aut.Trans {
		if aut.Trans[i].Cost > 0 {
			return fmt.Errorf("%w: %d transitions over %d edge labels", ErrTooManyTransitions, len(aut.Trans), g.NumLabels())
		}
	}
	return nil
}

// cont pushes one continuation for the successors of (v, n) over the run
// whose last member is tr at distance d, positioned on the last one still
// unvisited — or parks it through reject when d is beyond ψ. Nothing is
// pushed when every successor is visited. A wildcard continuation beyond ψ
// parks unpositioned, and is left out only when n has no neighbour over tr
// at all, which takes no visited probe: the members of a run share their
// neighbour segments. Any other wildcard continuation is a first pass (see
// stepWildcard): it is positioned on the last unvisited successor where Z
// holds. When there is none but it passed unvisited ones where Z fails, it is
// pushed Skipped and unpositioned, its cursor just above the highest of
// those, so that its pop lifts it from there without testing Z again.
func (ev *evaluator) cont(v, n graph.NodeID, d int32, tr *automaton.CTrans) {
	segs := ev.segments(tr)
	over := d > ev.psi
	seg, cur := segs-1, unpositioned
	var flag dstruct.ContFlag
	switch {
	case over && wildcard(tr):
		if !ev.hasNeighbour(n, tr, segs) {
			return
		}
		flag = dstruct.Walk
	case wildcard(tr):
		at, skip, ok := ev.walk(v, n, tr, seg, cur, true)
		switch {
		case ok:
			tr, seg, cur = at.tr, at.seg, at.i
			if skip.tr != nil {
				flag = dstruct.Skipped
			}
		case skip.tr == nil:
			return
		default:
			tr, seg, cur = skip.tr, skip.seg, skip.i+1
			flag = dstruct.Skipped | dstruct.Walk
		}
	default:
		var ok bool
		if tr, seg, cur, ok = ev.lastSucc(v, n, tr, seg, cur); !ok {
			return
		}
	}
	c := dstruct.Cont(v, n, d, tr.Index*ev.stride+int32(seg), int32(cur)).With(flag)
	if over {
		ev.reject(c)
		return
	}
	ev.add(c)
}

// segments returns the number of neighbour segments over tr (see segment);
// the members of a run share it.
func (ev *evaluator) segments(tr *automaton.CTrans) int {
	switch {
	case tr.Kind == automaton.Sym:
		return 2 * len(tr.Labels)
	case tr.Dir == graph.Both:
		return 1 // the incidence list
	}
	return int(ev.stride) // a one-way wildcard walks every label of the graph
}

// hasNeighbour reports whether one of the first segs neighbour segments of n
// over tr is non-empty.
func (ev *evaluator) hasNeighbour(n graph.NodeID, tr *automaton.CTrans, segs int) bool {
	for seg := range segs {
		if len(ev.segment(n, tr, seg)) > 0 {
			return true
		}
	}
	return false
}

// countPop counts one pop from D_R, which is one tick of the run's operation
// counter.
func (ev *evaluator) countPop() {
	ev.stats.TuplesPopped++
	ev.r.tick(1)
}

// step is what a popped continuation c does: it takes its current successor,
// re-adds itself positioned on the next unvisited one of its run — in the
// same member or one before it — before that successor is processed, so the
// successor's own pushes land above it, as they landed above its eager
// siblings, and returns the successor as the plain tuple to process. The pop
// counts, and the successor counts one tuple added, under the tuple budget;
// the re-added continuation does not. A wildcard continuation takes
// stepWildcard instead, the only step that meets an unpositioned one
// (dstruct.Walk): every evaluator whose automaton has a costed wildcard has a
// goal (boundsWildcards), and cont positions every other continuation.
func (ev *evaluator) step(c dstruct.Tuple) (dstruct.Tuple, bool) {
	slot := c.Slot()
	tr := &ev.aut.Trans[slot/ev.stride]
	seg, cur := int(slot%ev.stride), int(c.Cursor())
	if wildcard(tr) {
		return ev.stepWildcard(c, tr, seg, cur)
	}
	ev.countPop()
	if ev.r.overBudget(ev.stats.TuplesAdded + 1) {
		ev.failed = ErrTupleBudget
		return dstruct.Tuple{}, false
	}
	ev.stats.TuplesAdded++
	ev.r.tick(1)
	m := ev.segment(c.N, tr, seg)[cur]
	if next, seg, cur, ok := ev.lastSucc(c.V, c.N, tr, seg, cur); ok {
		ev.dr.Add(dstruct.Cont(c.V, c.N, c.D, next.Index*ev.stride+int32(seg), int32(cur)))
	}
	return dstruct.Tuple{V: c.V, N: m, S: tr.To, D: c.D}, true
}

// stepWildcard is step for a wildcard continuation, which walks its run in
// two passes. The first, at the run's distance d, yields only the successors
// where Z holds, and marks itself Skipped when it passes an unvisited one
// where Z fails. Once it has nothing left to yield, a Skipped first pass
// becomes the second (see lift), which yields every unvisited successor
// left, at distance d. A successor where Z fails answers at d + step at the
// earliest, so holding it back until that key follows the consistent lower
// bound of goal.go. The pass changes here, when the first pass pops, never
// when cont creates it: a continuation parked unpositioned above ψ and one a
// restarted phase positioned at creation then change pass at the same point
// of the pop trace. A first pass cont pushed with nothing to yield does not
// look for successors where Z holds again, since Z is fixed and the visited
// set only grows: it lifts from the highest successor still unvisited below
// its cursor, and is dropped when there is none.
func (ev *evaluator) stepWildcard(c dstruct.Tuple, tr *automaton.CTrans, seg, cur int) (dstruct.Tuple, bool) {
	lifted := c.Has(dstruct.Lifted)
	first := !lifted
	skipped := c.Has(dstruct.Skipped)
	if c.Has(dstruct.Walk) {
		if first && skipped {
			if at, _, ok := ev.walk(c.V, c.N, tr, seg, cur, false); ok {
				ev.lift(c, at)
			}
			return dstruct.Tuple{}, false
		}
		at, skip, ok := ev.walk(c.V, c.N, tr, seg, cur, first)
		if !ok {
			if skip.tr != nil {
				ev.lift(c, skip)
			}
			return dstruct.Tuple{}, false
		}
		tr, seg, cur = at.tr, at.seg, at.i
		skipped = skip.tr != nil
	}
	ev.countPop()
	if ev.r.overBudget(ev.stats.TuplesAdded + 1) {
		ev.failed = ErrTupleBudget
		return dstruct.Tuple{}, false
	}
	ev.stats.TuplesAdded++
	ev.r.tick(1)
	m := ev.segment(c.N, tr, seg)[cur]
	at, skip, ok := ev.walk(c.V, c.N, tr, seg, cur, first)
	switch {
	case ok:
		nc := dstruct.Cont(c.V, c.N, c.D, at.tr.Index*ev.stride+int32(at.seg), int32(at.i))
		if lifted {
			nc = nc.With(dstruct.Lifted)
		} else if skipped || skip.tr != nil {
			nc = nc.With(dstruct.Skipped)
		}
		ev.dr.Add(nc)
	case skipped:
		ev.lift(c, runPos{})
	case skip.tr != nil:
		ev.lift(c, skip)
	}
	d := c.D
	if lifted {
		d -= ev.goal.step
	}
	return dstruct.Tuple{V: c.V, N: m, S: tr.To, D: d}, true
}

// lift turns the exhausted first pass c into the second pass of its run: one
// Lifted continuation at key c.D + step, parked through reject when the key
// is beyond ψ. Its successors are at distance c.D, and D_R pops it after the
// final entries of its key and before the others, which may reach the same
// configurations at their real distance c.D + step. Its walk starts at from,
// the highest successor the first pass skipped, when the caller knows it:
// every successor above that one has been yielded or was visited when the
// first pass passed it, so starting there yields what starting at the end
// would, whichever start a driver knows. Otherwise (from.tr nil) it starts at
// the end of the run's last member, found by following the transitions after
// c's member for as long as each links back to the one before.
func (ev *evaluator) lift(c dstruct.Tuple, from runPos) {
	var slot, cur int32
	if from.tr != nil {
		slot, cur = from.tr.Index*ev.stride+int32(from.seg), int32(from.i+1)
	} else {
		last := c.Slot() / ev.stride
		for int(last)+1 < len(ev.aut.Trans) && ev.aut.Trans[last+1].Prev == last {
			last++
		}
		slot, cur = last*ev.stride+int32(ev.segments(&ev.aut.Trans[last]))-1, unpositioned
	}
	ev.addLifted(dstruct.Cont(c.V, c.N, c.D, slot, cur).With(dstruct.Walk))
}

// addLifted re-adds t, a plain tuple or a continuation at distance t.D, with
// the Lifted flag at key t.D + step, or parks it through reject when that key
// is beyond ψ. D_R pops it after the final entries of its key and before the
// others, and its pop takes the step off again (for a continuation, off the
// successors it yields). The entry was counted when it was first added, so
// the re-add counts as no tuple added; parked, it counts as every parked
// entry does (Deferred, then Reinjected and added when ψ admits it).
func (ev *evaluator) addLifted(t dstruct.Tuple) {
	t = t.With(dstruct.Lifted)
	if t.D += ev.goal.step; t.D > ev.psi {
		ev.reject(t)
		return
	}
	ev.dr.Add(t)
}

// lastSucc finds the last successor of n over tr's run before index end of
// tr's segment seg — tr's earlier segments included, then every segment of
// each earlier member of the run, following Prev — that meets the run's
// landing constraint and is unvisited from v in its member's state To, and
// returns that member, segment and index.
func (ev *evaluator) lastSucc(v, n graph.NodeID, tr *automaton.CTrans, seg, end int) (*automaton.CTrans, int, int, bool) {
	for {
		for ; seg >= 0; seg, end = seg-1, math.MaxInt {
			ns := ev.segment(n, tr, seg)
			for i := min(end, len(ns)) - 1; i >= 0; i-- {
				m := ns[i]
				if (tr.Target == graph.InvalidNode || m == tr.Target) && !ev.isVisited(v, m, tr.To) {
					return tr, seg, i, true
				}
			}
		}
		if tr.Prev < 0 {
			return nil, 0, 0, false
		}
		tr = &ev.aut.Trans[tr.Prev]
		seg, end = ev.segments(tr)-1, math.MaxInt
	}
}

// runPos is a place in a run: a member, one of its neighbour segments and an
// index in that segment; tr is nil for no place.
type runPos struct {
	tr     *automaton.CTrans
	seg, i int
}

// walk is lastSucc for a wildcard run: with first set it finds the last
// unvisited successor where Z holds, and also returns skip, the first
// unvisited one it passed where Z fails (skip.tr nil when there was none).
func (ev *evaluator) walk(v, n graph.NodeID, tr *automaton.CTrans, seg, end int, first bool) (at, skip runPos, ok bool) {
	for {
		for ; seg >= 0; seg, end = seg-1, math.MaxInt {
			ns := ev.segment(n, tr, seg)
			for i := min(end, len(ns)) - 1; i >= 0; i-- {
				if m := ns[i]; !ev.isVisited(v, m, tr.To) {
					if !first || ev.holds(m, tr.To) {
						return runPos{tr, seg, i}, skip, true
					}
					if skip.tr == nil {
						skip = runPos{tr, seg, i}
					}
				}
			}
		}
		if tr.Prev < 0 {
			return runPos{}, skip, false
		}
		tr = &ev.aut.Trans[tr.Prev]
		seg, end = ev.segments(tr)-1, math.MaxInt
	}
}

// segment returns neighbour segment seg of n over tr. A wildcard over both
// directions has one, n's incidence list. Otherwise segment seg holds the
// neighbours over label seg/2 of tr's labels (of the graph's, for a one-way
// wildcard), along out-edges for an even seg and in-edges for an odd one, and
// none in a direction tr does not follow. Taken in order, the segments list
// the neighbours per label in label order, the Out ones before the In ones
// (§3.4's NeighboursByEdge, before the landing filter); the incidence list is
// exactly the per-label segments concatenated, so either layout walks the same
// successors in the same order.
func (ev *evaluator) segment(n graph.NodeID, tr *automaton.CTrans, seg int) []graph.NodeID {
	if tr.Kind == automaton.Any && tr.Dir == graph.Both {
		return ev.g.Incident(n)
	}
	dir := graph.Out
	if seg&1 == 1 {
		dir = graph.In
	}
	if tr.Dir != graph.Both && tr.Dir != dir {
		return nil
	}
	l := graph.LabelID(seg >> 1)
	if tr.Kind == automaton.Sym {
		l = tr.Labels[seg>>1]
	}
	return ev.g.Neighbors(n, l, dir)
}

// Stats implements Iterator.
func (ev *evaluator) Stats() Stats {
	s := ev.stats
	s.Phases = 1
	// The gauge is shared by every evaluator of the execution, so the peak is
	// execution-wide; aggregation takes the max, not the sum.
	s.MemPeakBytes = ev.r.mem.PeakBytes()
	return s
}
