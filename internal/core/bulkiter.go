package core

import (
	"fmt"
	"sync/atomic"

	"omega/internal/bulk"
	"omega/internal/dstruct"
	"omega/internal/fault"
	"omega/internal/obs"
)

// fpBulkStep fires once per bulk BFS level (and once per block seeding); it
// is the bulk backend's counterpart of core.row in the chaos suite.
const fpBulkStep = "bulk.step"

// fpBulkBlock fires before a parallel worker evaluates a claimed lane block —
// the chaos-suite hook for worker-side faults inside the bulk fan-out.
const fpBulkBlock = "bulk.block"

// bulkIterator adapts a bulk.Run to the conjunct Iterator contract: answers
// stream block by block, all at distance 0 (eligibility guarantees it), in
// the engine's deterministic block/destination/lane order. The plan's bulk
// index is built lazily on first use and cached, so repeated executions of a
// PreparedQuery share it; the per-run lane-word matrices are private to this
// iterator and accounted into the execution's memory gauge.
type bulkIterator struct {
	plan *conjunctPlan
	r    *run

	autIdx int
	run    *bulk.Run       // serial path (one worker, or a single block)
	par    *bulk.ParRun    // parallel path (Parallelism > 1 and > 1 block)
	seen   *dstruct.U64Set // pair de-dup across alternands; nil for one automaton

	pairs []bulk.Pair // current block (after seen-filtering), handed out in place
	pi    int

	tuples  atomic.Int64 // product lane-bits set, against Options.MaxTuples
	lastMem int64        // the serial run's slot in the run's gauge
	parMem  []int64      // one slot per parallel worker
	shards  int          // parallel workers engaged, summed across automata
	parWait int64        // merge time blocked on worker deliveries

	acc      bulk.Stats // completed runs
	failed   error
	done     bool
	released bool
}

func newBulkIterator(p *conjunctPlan, r *run) *bulkIterator {
	b := &bulkIterator{plan: p, r: r}
	if len(p.auts) > 1 {
		b.seen = dstruct.NewU64Set()
	}
	return b
}

// Next implements Iterator: a batch of one out of nextPairs.
func (b *bulkIterator) Next() (Answer, bool, error) {
	ps, err := b.nextPairs(1)
	if len(ps) == 0 {
		return Answer{}, false, err
	}
	return Answer{Src: ps[0].Src, Dst: ps[0].Dst}, true, nil
}

// nextPairs is the bulk backend's batch pull: it blocks until the current
// lane block has an answer (evaluating further blocks as needed) and then
// hands over up to max of that block's remaining pairs, all at distance 0,
// straight out of the run's pair buffer — the slice is valid until the next
// call. It never starts another block to fill a batch, so a short return
// means the next pair costs a BFS, and it calls the run's idle hook before it
// starts one. An empty slice with a nil error is exhaustion; errors are
// sticky, as in the ranked evaluators.
func (b *bulkIterator) nextPairs(max int) ([]bulk.Pair, error) {
	for {
		if b.failed != nil {
			return nil, b.failed
		}
		if b.pi < len(b.pairs) {
			ps := b.pairs[b.pi:]
			if len(ps) > max {
				ps = ps[:max]
			}
			b.pi += len(ps)
			return ps, nil
		}
		if b.done {
			return nil, nil
		}
		// A new lane block is a BFS away, or in parallel a wait on the
		// workers: whatever the caller holds of the last one goes now.
		b.r.onIdle()
		if b.run == nil && b.par == nil {
			ix := b.bulkIdx()
			if k := b.r.par; k > 1 && ix.Blocks() > 1 {
				b.startPar(ix, k)
			} else {
				b.run = bulk.NewRun(ix)
				b.run.OnStep = b.step(b.r, &b.lastMem, ix.Bytes())
			}
		}
		var pairs []bulk.Pair
		var ok bool
		var err error
		if b.par != nil {
			pairs, ok, err = b.par.Next()
		} else {
			pairs, ok, err = b.run.NextBlock()
		}
		if err != nil {
			b.fail(err)
			return nil, b.failed
		}
		if !ok {
			// This automaton is exhausted; fold its counters and move on.
			b.accumulate()
			b.autIdx++
			if b.autIdx >= len(b.plan.auts) {
				b.release()
				return nil, nil
			}
			continue
		}
		if b.seen != nil {
			// Several alternand automata: keep each pair's first occurrence,
			// compacting in place (the block is ours until the next
			// NextBlock call, which only happens after it drains).
			kept := pairs[:0]
			for _, p := range pairs {
				if b.seen.Add(packPair(p.Src, p.Dst)) {
					kept = append(kept, p)
				}
			}
			pairs = kept
		}
		b.pairs, b.pi = pairs, 0
	}
}

// bulkIdx resolves the plan's bulk index for the current automaton, recording
// a bulk_index span when the execution is traced. The span covers either the
// one-time build or the plan-cache hit (its duration tells the two apart; the
// bytes attribute is the index's resident footprint either way).
func (b *bulkIterator) bulkIdx() *bulk.Index {
	tr := b.r.trace
	sp := tr.Start(b.r.span, obs.SpanBulkIndex)
	ix := b.plan.bulkIndex(b.autIdx)
	tr.SetAttr(sp, "aut", int64(b.autIdx))
	tr.SetAttr(sp, "bytes", ix.Bytes())
	tr.End(sp)
	return ix
}

// step returns the governance hook a run invokes per BFS level (and once per
// block seeding), on r — the execution's run, or a parallel worker's copy:
// tuple budget — one atomic counter shared by every worker, so the budget
// stays per-execution rather than per-worker — cancellation, the bulk.step
// failpoint, and the charge of the level's resident bytes to slot, with the
// hard watermark that goes with it. fixed is charged on top of what the run
// reports: the immutable index, once per automaton.
func (b *bulkIterator) step(r *run, slot *int64, fixed int64) func(resident int64, added int) error {
	return func(resident int64, added int) error {
		if r.overBudget(int(b.tuples.Add(int64(added)))) {
			return ErrTupleBudget
		}
		if err := r.done(); err != nil {
			return err
		}
		if fault.Enabled() {
			if err := fault.Inject(fpBulkStep); err != nil {
				return fmt.Errorf("bulk step: %w", err)
			}
		}
		return r.charge(slot, resident+fixed)
	}
}

// startPar fans the current automaton's lane blocks across a bounded worker
// group. Workers re-emit blocks in ascending index order, so the answer
// stream is byte-identical to the serial NextBlock loop; each worker runs the
// same per-level governance with its own slot in the memory accounting (the
// immutable index is charged once, through worker 0).
func (b *bulkIterator) startPar(ix *bulk.Index, k int) {
	wr := b.r.worker() // read-only from here on, so the workers share it
	b.par = bulk.NewParRun(ix, bulk.ParConfig{
		Workers: k,
		OnStep: func(worker int) func(resident int64, added int) error {
			if worker == 0 {
				return b.step(wr, &b.parMem[0], ix.Bytes())
			}
			return b.step(wr, &b.parMem[worker], 0)
		},
		OnBlock: b.onBlock,
	})
	b.parMem = make([]int64, b.par.Workers()) // before the first Next spawns the workers
	b.shards += b.par.Workers()
}

func (b *bulkIterator) onBlock(worker, block int) error {
	if fault.Enabled() {
		if err := fault.Inject(fpBulkBlock); err != nil {
			return fmt.Errorf("bulk block %d (worker %d): %w", block, worker, err)
		}
	}
	return nil
}

func (b *bulkIterator) accumulate() {
	if b.par != nil {
		b.par.Close() // joins the worker group; a no-op after exhaustion
		foldBulk(&b.acc, b.par.Stats())
		b.parWait += b.par.WaitNanos()
		// Workers are quiescent now; hand their accounted bytes back.
		for i := range b.parMem {
			b.r.refund(&b.parMem[i])
		}
		b.par = nil
		return
	}
	if b.run == nil {
		return
	}
	foldBulk(&b.acc, b.run.Stats)
	b.run = nil
}

func foldBulk(acc *bulk.Stats, s bulk.Stats) {
	acc.Added += s.Added
	acc.Frontier += s.Frontier
	acc.Neighbor += s.Neighbor
	acc.Levels += s.Levels
	acc.Blocks += s.Blocks
	acc.Pairs += s.Pairs
}

func (b *bulkIterator) fail(err error) {
	if b.failed == nil {
		b.failed = err
	}
	b.release()
}

// release hands accounted bytes back to the gauge and drops the run
// structures. Bulk state is never pooled, so there is nothing to poison.
func (b *bulkIterator) release() {
	if b.released {
		return
	}
	b.released, b.done = true, true
	b.accumulate()
	b.r.refund(&b.lastMem)
	b.pairs = nil
	b.pi = 0
}

// Close implements Iterator; bulk state is never pooled.
func (b *bulkIterator) Close() error {
	b.failed = closedErr(b.failed)
	b.release()
	return nil
}

// Abort implements Iterator.
func (b *bulkIterator) Abort(err error) {
	b.failed = abortErr(b.failed, err)
	b.release()
}

// Stats implements Iterator, mapping the bulk counters onto the shared
// schema: Added plays TuplesAdded (product lane-bits set, the direct analogue
// of D_R insertions), Frontier plays TuplesPopped (rows expanded).
func (b *bulkIterator) Stats() Stats {
	acc := b.acc
	wait := b.parWait
	if b.run != nil {
		foldBulk(&acc, b.run.Stats)
	}
	if b.par != nil {
		foldBulk(&acc, b.par.Stats()) // exited workers only; exact after exhaustion
		wait += b.par.WaitNanos()
	}
	return Stats{
		TuplesAdded:    int(acc.Added),
		TuplesPopped:   int(acc.Frontier),
		VisitedSize:    int(acc.Added),
		Phases:         1,
		NeighborCalls:  int(acc.Neighbor),
		Backend:        "bulk",
		Shards:         b.shards,
		MergeWaitNanos: wait,
		MemPeakBytes:   b.r.mem.PeakBytes(),
	}
}
