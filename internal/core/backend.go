package core

import (
	"fmt"

	"omega/internal/automaton"
	"omega/internal/bulk"
	"omega/internal/graph"
)

// Backend selects the evaluation engine for a conjunct.
//
// The ranked backend is the paper's GetNext/Succ machinery: answers stream in
// non-decreasing distance, which APPROX/RELAX and limited executions need.
// The bulk backend (internal/bulk) is a set-semantics engine for exhaustive
// exact workloads: word-parallel multi-source BFS over the automaton product,
// 64 sources per machine word. Both return identical answer *sets* for
// eligible queries; the bulk emission order is deterministic but not the
// ranked order (every answer is at distance 0, so the non-decreasing-distance
// contract holds either way).
type Backend uint8

const (
	// BackendAuto lets the planner choose per conjunct: bulk for exhaustive
	// (no Limit/MaxDist) zero-cost exact plans whose seed population makes
	// word-parallelism pay, ranked otherwise.
	BackendAuto Backend = iota
	// BackendRanked forces the ranked GetNext machinery.
	BackendRanked
	// BackendBulk forces the bulk set-semantics engine where eligible;
	// ineligible conjuncts (non-zero-cost plans) fall back to ranked.
	BackendBulk
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendRanked:
		return "ranked"
	case BackendBulk:
		return "bulk"
	default:
		return "auto"
	}
}

// ParseBackend parses "auto", "ranked" or "bulk" (the HTTP backend= values
// and the -backend flag).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "ranked":
		return BackendRanked, nil
	case "bulk":
		return BackendBulk, nil
	default:
		return BackendAuto, fmt.Errorf("core: unknown backend %q (want auto, ranked or bulk)", s)
	}
}

// Auto-selection thresholds. Word-parallelism amortises over the 64 lanes of
// a source block, so tiny seed populations (every unit-test graph, every
// constant-subject conjunct) stay ranked; the factor-2 margin on the modelled
// work keeps borderline plans on the engine whose constants are known.
const (
	minBulkSeeds = 128
	bulkCostFold = 2
)

// backendDecision is one conjunct's backend choice with the planner's
// evidence, rendered by Explain and surfaced through Stats.Backend.
type backendDecision struct {
	backend   Backend
	pinned    bool // the caller forced a backend; otherwise the planner chose
	reason    string
	seeds     int   // estimated source population S
	edges     int64 // summed label edge volume E over the plan's transitions
	estRanked int64 // modelled ranked work: S × E edge visits
	estBulk   int64 // modelled bulk work: ⌈S/64⌉ × (E + N) word operations
}

// bulkOK reports whether every automaton of the plan is bulk-eligible and the
// plan's seed and annotation costs are all zero — the conditions under which
// every answer is at distance 0 and set semantics preserve the ranked
// contract.
func (p *conjunctPlan) bulkOK() bool {
	for _, aut := range p.auts {
		if !bulk.Eligible(aut) {
			return false
		}
	}
	for _, s := range p.seeds {
		if s.cost != 0 {
			return false
		}
	}
	for _, c := range p.finalAnn {
		if c != 0 {
			return false
		}
	}
	return true
}

// seedCount estimates the plan's source population: Case 1 counts its
// resolved seeds; Case 3 sums the stream estimates over the plan's automata
// (an overestimate — duplicates across label lists are not removed — which is
// fine for a cost model).
func (p *conjunctPlan) seedCount() int {
	if !p.case3 {
		return len(p.seeds)
	}
	total := 0
	for _, aut := range p.auts {
		total += p.seedEstimate(aut)
	}
	return total
}

// edgeVolume sums the data-graph edge counts matched by every compiled
// transition of the plan — the E of the cost model (each graph edge can fire
// once per transition using its label).
func (p *conjunctPlan) edgeVolume() int64 {
	var e int64
	for _, aut := range p.auts {
		for s := int32(0); s < aut.NumStates; s++ {
			for _, tr := range aut.NextStates(s) {
				if tr.Kind == automaton.Any {
					e += int64(p.g.NumEdges())
					continue
				}
				for _, l := range tr.Labels {
					e += int64(p.g.EdgeCount(l))
				}
			}
		}
	}
	return e
}

// chooseBackend resolves the backend for this conjunct. req is the caller's
// request (ExecOptions.Backend overriding Options.Backend); exhaustive
// reports whether the execution runs unlimited (no Limit, no MaxDist) — the
// scenario class the bulk engine exists for. Auto weighs a simple work model:
// ranked visits ~S×E product edges (each of S sources can walk the matched
// edge volume E), bulk does the same walk once per 64-lane block plus a
// per-block sweep of the N-node structures.
func (p *conjunctPlan) chooseBackend(req Backend, exhaustive bool) backendDecision {
	d := backendDecision{backend: BackendRanked, pinned: req != BackendAuto}
	switch req {
	case BackendRanked:
		d.reason = "forced"
		return d
	case BackendBulk:
		if !p.bulkOK() {
			d.reason = "forced bulk unavailable: plan has ranked (non-zero-cost) operations"
			return d
		}
		d.backend = BackendBulk
		d.reason = "forced"
		return d
	}

	switch {
	case !exhaustive:
		d.reason = "limited execution streams ranked answers"
		return d
	case p.mode != automaton.Exact:
		d.reason = fmt.Sprintf("%v mode ranks answers by distance", p.mode)
		return d
	case !p.bulkOK():
		d.reason = "plan has non-zero-cost operations"
		return d
	}

	d.seeds = p.seedCount()
	d.edges = p.edgeVolume()
	blocks := int64(d.seeds+63) / 64
	d.estRanked = int64(d.seeds) * d.edges
	d.estBulk = blocks * (d.edges + int64(p.g.NumNodes()))
	switch {
	case d.seeds < minBulkSeeds:
		d.reason = fmt.Sprintf("seed population %d below word-parallel payoff (<%d)", d.seeds, minBulkSeeds)
	case d.estBulk*bulkCostFold >= d.estRanked:
		d.reason = fmt.Sprintf("modelled bulk work %d not ahead of ranked %d", d.estBulk, d.estRanked)
	default:
		d.backend = BackendBulk
		d.reason = fmt.Sprintf("exhaustive exact scan: %d seeds in %d lane blocks, est %d word ops vs %d ranked edge visits",
			d.seeds, blocks, d.estBulk, d.estRanked)
	}
	return d
}

// backendFor is this conjunct's backend under one execution's knobs — the
// decision Exec opens and Explain renders: eo.Backend layered over the
// engine-level default, with only exhaustive executions (no Limit, no
// MaxDist) auto-eligible for the bulk engine, since a limited execution wants
// streamed answers.
func (p *conjunctPlan) backendFor(eo ExecOptions) backendDecision {
	req := eo.Backend
	if req == BackendAuto {
		req = p.opts.Backend
	}
	return p.chooseBackend(req, eo.Limit == 0 && eo.MaxDist == 0)
}

// injectiveProjection reports whether projecting a conjunct's (Src, Dst)
// answers onto the query head is injective — every variable endpoint appears
// in the head, so distinct pairs always yield distinct rows. The bulk backend
// emits set-distinct pairs, which lets the single-conjunct adapter skip its
// per-row de-duplication set entirely when the projection is injective.
func injectiveProjection(q *Query) bool {
	c := q.Conjuncts[0]
	inHead := func(name string) bool {
		for _, h := range q.Head {
			if h == name {
				return true
			}
		}
		return false
	}
	if c.Subject.IsVar && !inHead(c.Subject.Name) {
		return false
	}
	if c.Object.IsVar && !inHead(c.Object.Name) {
		return false
	}
	return true
}

// backendsLabel renders an execution's per-conjunct backend choices for
// Stats: the common name when uniform, "mixed" otherwise.
func backendsLabel(bs []Backend) string {
	if len(bs) == 0 {
		return ""
	}
	first := bs[0]
	for _, b := range bs[1:] {
		if b != first {
			return "mixed"
		}
	}
	return first.String()
}

// bulkSeeds materialises the seed list handed to bulk.NewIndex: the resolved
// Case 1 seeds, or nil for Case 3 (the index derives the population from the
// start state's transitions, matching the ranked node stream).
func (p *conjunctPlan) bulkSeeds() []graph.NodeID {
	if p.case3 {
		return nil
	}
	seeds := make([]graph.NodeID, 0, len(p.seeds))
	for _, s := range p.seeds {
		seeds = append(seeds, s.node)
	}
	return seeds
}

// bulkAnn materialises the final-node annotation list for bulk.NewIndex.
func (p *conjunctPlan) bulkAnn() []graph.NodeID {
	if p.finalAnn == nil {
		return nil
	}
	ann := make([]graph.NodeID, 0, len(p.finalAnn))
	for n := range p.finalAnn {
		ann = append(ann, n)
	}
	return ann
}
