package core

import (
	"fmt"

	"omega/internal/bulk"
	"omega/internal/dstruct"
	"omega/internal/fault"
	"omega/internal/obs"
)

// fpBulkStep fires once per bulk BFS level (and once per block seeding); it
// is the bulk backend's counterpart of core.row in the chaos suite.
const fpBulkStep = "bulk.step"

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
	run    *bulk.Run       // the current automaton's run
	seen   *dstruct.U64Set // pair de-dup across alternands; nil for one automaton

	pairs []bulk.Pair // current block (after seen-filtering), handed out in place
	pi    int

	tuples  int   // product lane-bits set, against Options.MaxTuples
	lastMem int64 // the run's slot in the execution's gauge

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
		// A new lane block is a BFS away: whatever the caller holds of the
		// last one goes now.
		b.r.onIdle()
		if b.run == nil {
			ix := b.bulkIdx()
			b.run = bulk.NewRun(ix)
			b.run.OnStep = b.step(ix.Bytes())
		}
		pairs, ok, err := b.run.NextBlock()
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
// block seeding): tuple budget, cancellation, the bulk.step failpoint, and
// the charge of the level's resident bytes to the iterator's slot, with the
// hard watermark that goes with it. fixed is charged on top of what the run
// reports: the immutable index, once per automaton.
func (b *bulkIterator) step(fixed int64) func(resident int64, added int) error {
	return func(resident int64, added int) error {
		b.tuples += added
		if b.r.overBudget(b.tuples) {
			return ErrTupleBudget
		}
		if err := b.r.done(); err != nil {
			return err
		}
		if fault.Enabled() {
			if err := fault.Inject(fpBulkStep); err != nil {
				return fmt.Errorf("bulk step: %w", err)
			}
		}
		return b.r.charge(&b.lastMem, resident+fixed)
	}
}

func (b *bulkIterator) accumulate() {
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
	if b.run != nil {
		foldBulk(&acc, b.run.Stats)
	}
	return Stats{
		TuplesAdded:   int(acc.Added),
		TuplesPopped:  int(acc.Frontier),
		VisitedSize:   int(acc.Added),
		Phases:        1,
		NeighborCalls: int(acc.Neighbor),
		Backend:       "bulk",
		MemPeakBytes:  b.r.mem.PeakBytes(),
	}
}
