package core

import (
	"fmt"
	"math"
	"sync"

	"omega/internal/automaton"
	"omega/internal/bitset"
	"omega/internal/bulk"
	"omega/internal/graph"
	"omega/internal/ontology"
	"omega/internal/rpq"
)

func packPair(v, n graph.NodeID) uint64 {
	return uint64(uint32(v))<<32 | uint64(uint32(n))
}

// conjunctPlan is the reusable, immutable part of conjunct initialisation:
// compiled automata (one per alternand when decomposing, else a single
// automaton for the whole expression), Case 1 seeds, and the final-state
// annotation. A plan is read-only after compileConjunct returns — except for the
// mutex-guarded lazy bulk-index cache, mirroring Prepared's variant cache —
// so any number of concurrent executions may instantiate evaluators from it;
// that is what makes a PreparedQuery goroutine-shareable. Evaluators are
// cheap to spin up from a plan, which is also what the ψ-phase driver and its
// restart-based reference need.
type conjunctPlan struct {
	g    *graph.Graph
	ont  *ontology.Ontology
	opts Options // plan-time options (costs, planner flags); run-time knobs come from each exec
	mode automaton.Mode

	auts      []*automaton.Compiled
	seeds     []seed                 // Case 1 (nil for Case 3)
	seedNodes []graph.NodeID         // the seeds' nodes, in seeds' order (nil for Case 3)
	finalAnn  map[graph.NodeID]int32 // nil = wildcard
	case3     bool

	decompose bool // evaluate per alternand (§4.3 disjunction strategy)
	built     int  // automata constructed while planning (compile counter)

	swapped bool // Case 2: (?X,R,C) evaluated as (C,R−,?X)
	sameVar bool // (?X,R,?X): keep only answers with Src == Dst

	bulkMu sync.Mutex
	bulkIx []*bulk.Index // lazily built per automaton, shared by executions
}

// bulkIndex returns (building and caching on first use) the bulk backend's
// index for automaton autIdx: per-transition source bitmaps, the seed
// population and the final annotation. The index is immutable once built, so
// concurrent executions share one copy per prepared plan.
func (p *conjunctPlan) bulkIndex(autIdx int) *bulk.Index {
	p.bulkMu.Lock()
	defer p.bulkMu.Unlock()
	if p.bulkIx == nil {
		p.bulkIx = make([]*bulk.Index, len(p.auts))
	}
	if p.bulkIx[autIdx] == nil {
		p.bulkIx[autIdx] = bulk.NewIndex(p.g, p.auts[autIdx], p.bulkSeeds(), p.bulkAnn())
	}
	return p.bulkIx[autIdx]
}

// compileConjunct builds the compile-time plan for one conjunct — the case
// analysis of Open (§3.3): expression (optionally decomposed per alternand),
// automata, seeds and final annotation. The result is immutable and
// shareable. It is the one place that decides whether the conjunct
// decomposes, so Explain describes exactly the plan Exec runs.
func compileConjunct(g *graph.Graph, ont *ontology.Ontology, c Conjunct, opts Options) (*conjunctPlan, error) {
	if c.Expr == nil {
		return nil, fmt.Errorf("core: conjunct %s has no expression", c)
	}
	decompose := opts.Disjunction && len(c.Expr.Alternands()) > 1
	if (c.Mode == automaton.Relax || c.Mode == automaton.Flex) && ont == nil {
		return nil, fmt.Errorf("core: %v requires an ontology", c.Mode)
	}
	p := &conjunctPlan{g: g, ont: ont, opts: opts, mode: c.Mode, decompose: decompose}

	subj, obj := c.Subject, c.Object
	reverse := false
	if subj.IsVar && !obj.IsVar {
		// Case 2: transform (?X, R, C) into (C, R−, ?X).
		subj, obj = obj, subj
		reverse = true
		p.swapped = true
	}
	p.sameVar = subj.IsVar && obj.IsVar && subj.Name == obj.Name
	p.case3 = subj.IsVar

	relaxing := c.Mode == automaton.Relax || c.Mode == automaton.Flex

	// Automata: one per top-level alternand when the disjunction strategy is
	// active (§4.3), otherwise one for the whole expression. Reversal is
	// applied per alternand: (R1|R2)− ≡ R1−|R2−.
	exprs := []*rpq.Expr{c.Expr}
	if decompose {
		exprs = c.Expr.Alternands()
	}
	bopts := automaton.BuildOptions{
		Mode:        c.Mode,
		Edit:        opts.Edit,
		RelaxCosts:  opts.Relax,
		EnableRule2: opts.EnableRule2,
		Reverse:     reverse,
	}
	for _, e := range exprs {
		aut, err := automaton.Build(e, g, ont, bopts)
		if err != nil {
			return nil, err
		}
		if err := checkContSlots(aut, g); err != nil {
			return nil, err
		}
		p.auts = append(p.auts, aut)
		p.built++
	}

	// Rare-side heuristic (EXTENSION): for a (?X, R, ?Y) conjunct, compare
	// the candidate seed population of R against that of R− and evaluate
	// from the rarer end, flipping answers back afterwards.
	if opts.RareSide && p.case3 && !p.sameVar {
		ropts := bopts
		ropts.Reverse = !ropts.Reverse
		var revAuts []*automaton.Compiled
		fwd, rev := 0, 0
		for i, e := range exprs {
			aut, err := automaton.Build(e, g, ont, ropts)
			if err != nil {
				return nil, err
			}
			if err := checkContSlots(aut, g); err != nil {
				return nil, err
			}
			revAuts = append(revAuts, aut)
			p.built++
			fwd += p.seedEstimate(p.auts[i])
			rev += p.seedEstimate(aut)
		}
		if rev < fwd {
			p.auts = revAuts
			p.swapped = !p.swapped
		}
	}

	// Case 1 seeds: the constant's node; under RELAX, every class ancestor
	// at cost k·β, most specific first (GetAncestors, Open line 8).
	if !subj.IsVar {
		if relaxing && ont != nil && ont.IsClass(subj.Name) {
			for _, e := range ont.ClassAncestors(subj.Name) {
				if node, ok := g.LookupNode(e.Name); ok {
					p.seeds = append(p.seeds, seed{node: node, cost: int32(e.Dist) * opts.Relax.Beta})
				}
			}
		} else if node, ok := g.LookupNode(subj.Name); ok {
			p.seeds = append(p.seeds, seed{node: node})
		}
		// Non-nil even when the constant names no node: the bulk index reads
		// a nil seed list as Case 3's.
		p.seedNodes = make([]graph.NodeID, len(p.seeds))
		for i, s := range p.seeds {
			p.seedNodes[i] = s.node
		}
	}

	// Final-state annotation: a constant object constrains accepted nodes;
	// under RELAX a class constant also accepts its ancestors at k·β.
	if !obj.IsVar {
		p.finalAnn = map[graph.NodeID]int32{}
		if relaxing && ont != nil && ont.IsClass(obj.Name) {
			for _, e := range ont.ClassAncestors(obj.Name) {
				if node, ok := g.LookupNode(e.Name); ok {
					cost := int32(e.Dist) * opts.Relax.Beta
					if old, dup := p.finalAnn[node]; !dup || cost < old {
						p.finalAnn[node] = cost
					}
				}
			}
		} else if node, ok := g.LookupNode(obj.Name); ok {
			p.finalAnn[node] = 0
		}
	}
	if err := p.checkDistances(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkDistances fails with ErrDistanceRange when an evaluator of p could
// make a distance beyond int32. Every entry it adds to D_R extends a popped
// configuration's cheapest distance — a seed cost plus at most one compiled
// transition cost per (node, state) configuration — by one transition cost,
// a ψ grid step (a lifted key) or a final weight and annotation cost.
func (p *conjunctPlan) checkDistances() error {
	var seedMax, annMax int64
	for _, s := range p.seeds {
		seedMax = max(seedMax, int64(s.cost))
	}
	for _, c := range p.finalAnn {
		annMax = max(annMax, int64(c))
	}
	step := int64(p.opts.psiStep(p.mode))
	for _, aut := range p.auts {
		costMax, finalMax := step, int64(0)
		for i := range aut.Trans {
			costMax = max(costMax, int64(aut.Trans[i].Cost))
		}
		for _, w := range aut.FinalWeight {
			finalMax = max(finalMax, int64(w))
		}
		configs := int64(p.g.NumNodes()) * int64(len(aut.FinalWeight))
		if seedMax+(configs+1)*costMax+finalMax+annMax > math.MaxInt32 {
			return fmt.Errorf("%w: %d nodes × %d states at a cost of up to %d", ErrDistanceRange, p.g.NumNodes(), len(aut.FinalWeight), costMax)
		}
	}
	return nil
}

// newEvaluator instantiates a fresh evaluator over automaton autIdx with
// distance cap psi (uncapped for none): D_R's pop ceiling is psi, and it
// parks what exceeds psi up to the last ψ a driver stepping to maxPsi can
// reach. Run-time knobs (budgets, batching) and governance come from r,
// which must outlive the evaluator. Its structures come from a bundle of
// the run's pool (a fresh one when the run has none), and this is where
// visited_R's structure is chosen: a Case 1 search marks the seed bitmap, a
// Case 3 one the hash table.
func (p *conjunctPlan) newEvaluator(r *run, autIdx int, psi, maxPsi int32) *evaluator {
	aut := p.auts[autIdx]
	// The last reachable phase is the first grid point ≥ maxPsi (stepping
	// stops once ψ ≥ maxPsi, so it still runs that one); entries beyond it
	// can never be admitted and are not worth parking.
	step := int64(p.opts.psiStep(p.mode))
	ev := &evaluator{
		g:          p.g,
		aut:        aut,
		r:          r,
		psi:        psi,
		deferLimit: int32(min((int64(maxPsi)+step-1)/step*step, math.MaxInt32)),
		stride:     contStride(p.g),
		finalAnn:   p.finalAnn,
		state:      r.pool.get(),
	}
	st := ev.state
	ev.dr, ev.answers = st.dict, st.answers
	ev.dr.SetCeiling(psi)
	if boundsWildcards(aut) {
		if st.goal == nil {
			st.goal = new(goalSearch)
		}
		ev.goal = st.goal
		ev.goal.step = int32(step)
		ev.goal.memo.Reset(p.g.NumNodes())
	}
	if p.case3 {
		ev.visited = st.visited
		// The stream's graph-sized de-duplication bitmap is created on the
		// bundle's first Case 3 use and cleared by each stream.
		if st.seen == nil {
			st.seen = bitset.New(p.g.NumNodes())
		}
		ev.stream = p.buildStream(aut, st.seen)
	} else {
		ev.seedVisited = st.seedVisited
		ev.seedVisited.Reset(p.seedNodes, p.g.NumNodes(), aut.NumStates)
		ev.seeds = p.seeds
	}
	return ev
}

// psiCap is the cap on ψ stepping for this plan: Options.MaxPsi, or 16·φ when
// unset, lowered to maxDist when that is positive (a per-exec MaxDist can
// never need answers beyond itself).
func (p *conjunctPlan) psiCap(maxDist int32) int32 {
	psi := p.opts.MaxPsi
	if psi <= 0 {
		psi = 16 * p.opts.phi(p.mode)
	}
	if maxDist > 0 && maxDist < psi {
		psi = maxDist
	}
	return psi
}

// driver is the kind of iterator open instantiates for a conjunct.
type driver uint8

const (
	driverEmpty driver = iota // the constant subject names no node
	// driverBulk is the set-semantics engine: every answer is at distance 0,
	// so the phase drivers have nothing to order; alternands are evaluated
	// sequentially inside the iterator.
	driverBulk
	// driverPhases is the ψ-phase driver both §4.3 strategies are, over the
	// alternands or over the conjunct's single automaton.
	driverPhases
	driverEvaluator // one ranked evaluator
)

// driverFor is the one decision of which driver runs this conjunct, given the
// run's options and its resolved backend: open instantiates it and Explain
// renders it.
func (p *conjunctPlan) driverFor(opts *Options, backend Backend) driver {
	switch {
	case !p.case3 && len(p.seeds) == 0:
		return driverEmpty
	case backend == BackendBulk:
		return driverBulk
	case p.decompose || (opts.DistanceAware && p.mode != automaton.Exact):
		return driverPhases
	default:
		return driverEvaluator
	}
}

// open instantiates the per-run evaluator state for this plan: the paper's
// Open minus everything already compiled into the plan. r governs the run and
// must outlive the iterator; maxDist > 0 additionally caps the distance-aware
// ψ stepping. backend selects the evaluation engine — callers resolve it
// through chooseBackend, so a BackendBulk here is already known eligible.
func (p *conjunctPlan) open(r *run, maxDist int32, backend Backend) Iterator {
	var it Iterator
	switch p.driverFor(&r.opts, backend) {
	case driverEmpty:
		return &emptyIterator{}
	case driverBulk:
		it = newBulkIterator(p, r)
	case driverPhases:
		it = newDisjunction(p, r, p.opts.psiStep(p.mode), p.psiCap(maxDist))
	case driverEvaluator:
		it = p.newEvaluator(r, 0, uncapped, uncapped)
	}
	if p.sameVar {
		it = sameVarIterator{it}
	}
	if p.swapped {
		it = swapIterator{it}
	}
	return it
}

// seedEstimate sizes the Case 3 seed population of a compiled automaton:
// the summed length of the node lists the stream would draw from, plus the
// whole graph when the start state is final. Used by the rare-side
// heuristic; no streams are instantiated.
func (p *conjunctPlan) seedEstimate(aut *automaton.Compiled) int {
	total := 0
	states := aut.NextStates(aut.Start)
	for i := range states {
		tr := &states[i]
		switch tr.Kind {
		case automaton.Sym:
			for _, l := range tr.Labels {
				switch tr.Dir {
				case graph.Out:
					total += len(p.g.Tails(l))
				case graph.In:
					total += len(p.g.Heads(l))
				default:
					total += len(p.g.Tails(l)) + len(p.g.Heads(l))
				}
			}
		case automaton.Any:
			total += p.g.NumEdges()
		}
	}
	if _, final := aut.IsFinal(aut.Start); final {
		total += p.g.NumNodes()
	}
	return total
}

// buildStream assembles the initial-node coroutine for Case 3 (§3.3,
// GetAllNodesByLabel / GetAllStartNodesByLabel): node sets that possess an
// edge matching some transition out of the initial state, retrieved via
// Tails/Heads/TailsAndHeads, de-duplicated, and — when the initial state is
// final — followed by every remaining node of the graph (step (iv)). seen,
// when non-nil, is a reusable de-duplication bitmap (pooled executions).
func (p *conjunctPlan) buildStream(aut *automaton.Compiled, seen *bitset.Set) *graph.NodeStream {
	var sources [][]graph.NodeID
	addLabel := func(l graph.LabelID, dir graph.Direction) {
		switch dir {
		case graph.Out:
			sources = append(sources, p.g.Tails(l))
		case graph.In:
			sources = append(sources, p.g.Heads(l))
		default:
			sources = append(sources, p.g.TailsAndHeads(l))
		}
	}
	states := aut.NextStates(aut.Start)
	for i := range states {
		tr := &states[i]
		switch tr.Kind {
		case automaton.Sym:
			for _, l := range tr.Labels {
				addLabel(l, tr.Dir)
			}
		case automaton.Any:
			for l := 0; l < p.g.NumLabels(); l++ {
				addLabel(graph.LabelID(l), tr.Dir)
			}
		}
	}
	_, startFinal := aut.IsFinal(aut.Start)
	return graph.NewNodeStreamWith(p.g, sources, startFinal, seen)
}

// emptyIterator yields nothing; it owns nothing, so all it keeps is the
// sticky error the contract asks for after Close or Abort.
type emptyIterator struct{ failed error }

func (e *emptyIterator) Next() (Answer, bool, error) { return Answer{}, false, e.failed }

func (e *emptyIterator) Close() error {
	e.failed = closedErr(e.failed)
	return nil
}

func (e *emptyIterator) Abort(err error) { e.failed = abortErr(e.failed, err) }

func (e *emptyIterator) Stats() Stats { return Stats{} }

// swapIterator undoes the Case 2 transformation: the underlying evaluator
// produced (C, x) pairs for (C, R−, ?X); the conjunct's subject binding is x.
type swapIterator struct{ Iterator }

func (s swapIterator) Next() (Answer, bool, error) {
	a, ok, err := s.Iterator.Next()
	if ok {
		a.Src, a.Dst = a.Dst, a.Src
	}
	return a, ok, err
}

// sameVarIterator keeps only reflexive answers, for conjuncts of the form
// (?X, R, ?X).
type sameVarIterator struct{ Iterator }

func (s sameVarIterator) Next() (Answer, bool, error) {
	for {
		a, ok, err := s.Iterator.Next()
		if !ok || err != nil || a.Src == a.Dst {
			return a, ok, err
		}
	}
}

// OpenConjunct initialises evaluation of a single conjunct (the paper's Open
// procedure) and returns an iterator over its answers in non-decreasing
// distance from the original conjunct. It is compileConjunct + open in one
// shot, on a run of its own with no context, watermarks or trace, on
// the ranked machinery (backend selection belongs to the execution layer,
// which knows whether the run is exhaustive); prepared queries split the two
// so Exec skips compilation.
func OpenConjunct(g *graph.Graph, ont *ontology.Ontology, c Conjunct, opts Options) (Iterator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	plan, err := compileConjunct(g, ont, c, opts)
	if err != nil {
		return nil, err
	}
	r := newRun(nil, opts, NewMemGauge(0), nil, nil)
	return plan.open(&r, 0, BackendRanked), nil
}
