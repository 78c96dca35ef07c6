package core

import (
	"omega/internal/automaton"
	"omega/internal/dstruct"
	"omega/internal/graph"
)

// This file holds the bound that lets a wildcard continuation hold back the
// successors that cannot answer at its own distance.
//
// Z(n, s) holds when some zero-cost acceptance is reachable from the
// configuration (n, s) over cost-0 compiled transitions with real neighbours
// in the graph: a state whose final weight is 0, reached at a node its final
// annotation accepts at cost 0. A configuration where Z fails needs at least
// one positive cost to answer, and every positive cost — transition costs,
// final weights, RELAX annotations, seed costs — is a multiple of the ψ grid
// step (Options.psiStep), so its remaining cost is at least one step. The
// bound lb = 0 where Z holds, one step where it fails, is consistent: a cost-0
// move out of a configuration where Z fails lands on one where it fails too,
// and a costed move pays a step. Z is exact — a search either reaches an
// acceptance or exhausts the cost-0 closure — and memoised per execution in
// two bits per configuration.

// Z values in the memo; a configuration is zOnSearch while a search that
// entered it runs.
const (
	zUnknown uint8 = iota
	zFalse
	zTrue
	zOnSearch
)

// goalSearch is the per-execution state of Z: the ψ grid step, which is the
// remaining cost Z's failure promises, the memo and the depth-first search's
// buffers, pooled with the evaluator's bundle.
type goalSearch struct {
	step  int32
	memo  dstruct.StateMemo
	stack []goalFrame
	trail []goalFrame // every configuration the current search entered
}

// goalFrame is a configuration on the search stack and its position among
// the neighbours over its state's cost-0 transitions: transition ti of the
// state, neighbour segment seg of that transition, index i in the segment.
type goalFrame struct {
	n          graph.NodeID
	s          int32
	ti, seg, i int32
}

// goalFrameMem is the size of a goalFrame: five 4-byte fields.
const goalFrameMem = 20

// bytes returns the approximate resident footprint of the search state.
func (z *goalSearch) bytes() int64 {
	return z.memo.Bytes() + int64(cap(z.stack)+cap(z.trail))*goalFrameMem
}

// boundsWildcards reports whether aut has a costed wildcard transition
// without a landing target — an APPROX insertion or substitution, or a FLEX
// edit — which is what the bound applies to.
func boundsWildcards(aut *automaton.Compiled) bool {
	for i := range aut.Trans {
		if tr := &aut.Trans[i]; tr.Cost > 0 && wildcard(tr) {
			return true
		}
	}
	return false
}

// wildcard reports whether tr is a wildcard without a landing target.
func wildcard(tr *automaton.CTrans) bool {
	return tr.Kind == automaton.Any && tr.Target == graph.InvalidNode
}

// holds reports Z(n, s), searching when the memo does not know it. Most
// configurations a wildcard reaches are decided by their own neighbours: an
// acceptance holds, and one whose cost-0 neighbours are all known false, or
// which has none, fails. Only a configuration with an undecided neighbour
// takes the search. A decision read off at most leafNeighbours neighbours is
// not memoised: redoing it costs about what a lookup costs, and a memo that
// holds only what searches found keeps few pages, so the lookup that misses
// it rarely leaves the cache.
func (ev *evaluator) holds(n graph.NodeID, s int32) bool {
	memo := &ev.goal.memo
	switch memo.Get(n, s) {
	case zTrue:
		return true
	case zFalse:
		return false
	}
	if ev.accepts(n, s) {
		return true
	}
	z, seen := zFalse, 0
	states := ev.aut.NextStates(s)
scan:
	for i := range states {
		tr := &states[i]
		if tr.Cost != 0 {
			continue
		}
		for seg := range ev.segments(tr) {
			for _, m := range ev.segment(n, tr, seg) {
				if tr.Target != graph.InvalidNode && m != tr.Target {
					continue
				}
				seen++
				switch memo.Get(m, tr.To) {
				case zTrue:
					z = zTrue
					break scan
				case zUnknown:
					if !ev.accepts(m, tr.To) {
						return ev.search(n, s)
					}
					z = zTrue
					break scan
				}
			}
		}
	}
	if seen > leafNeighbours {
		memo.Set(n, s, z)
	}
	return z == zTrue
}

// leafNeighbours is how many cost-0 neighbours a configuration decided
// without a search may have and still not be memoised.
const leafNeighbours = 2

// accepts reports whether (n, s) is a zero-cost acceptance.
func (ev *evaluator) accepts(n graph.NodeID, s int32) bool {
	if w, final := ev.aut.IsFinal(s); final && w == 0 {
		c, ok := ev.annCost(n)
		return ok && c == 0
	}
	return false
}

// search decides Z(n, s) depth-first over the cost-0 closure of (n, s). A
// search that fails has exhausted the closure of everything it entered, so
// all of it is false. One that succeeds marks its stack — the path to the
// acceptance — true and forgets the rest: a configuration it left early may
// have failed only because a configuration on the stack was still open.
func (ev *evaluator) search(n graph.NodeID, s int32) bool {
	z := ev.goal
	z.stack, z.trail = z.stack[:0], z.trail[:0]
	found := ev.enter(n, s)
	for !found && len(z.stack) > 0 {
		m, t, ok := ev.nextZero(&z.stack[len(z.stack)-1])
		if !ok {
			z.stack = z.stack[:len(z.stack)-1]
			continue
		}
		switch z.memo.Get(m, t) {
		case zTrue:
			found = true
		case zUnknown:
			found = ev.enter(m, t)
		}
	}
	if !found {
		for _, f := range z.trail {
			z.memo.Set(f.n, f.s, zFalse)
		}
		return false
	}
	for _, f := range z.trail {
		z.memo.Set(f.n, f.s, zUnknown)
	}
	for _, f := range z.stack {
		z.memo.Set(f.n, f.s, zTrue)
	}
	return true
}

// enter pushes (n, s) on the search and reports whether it is a zero-cost
// acceptance.
func (ev *evaluator) enter(n graph.NodeID, s int32) bool {
	z := ev.goal
	z.memo.Set(n, s, zOnSearch)
	z.stack = append(z.stack, goalFrame{n: n, s: s})
	z.trail = append(z.trail, goalFrame{n: n, s: s})
	return ev.accepts(n, s)
}

// nextZero advances f to its next neighbour over a cost-0 transition and
// returns that configuration.
func (ev *evaluator) nextZero(f *goalFrame) (graph.NodeID, int32, bool) {
	states := ev.aut.NextStates(f.s)
	for ; int(f.ti) < len(states); f.ti, f.seg, f.i = f.ti+1, 0, 0 {
		tr := &states[f.ti]
		if tr.Cost != 0 {
			continue
		}
		for segs := int32(ev.segments(tr)); f.seg < segs; f.seg, f.i = f.seg+1, 0 {
			ns := ev.segment(f.n, tr, int(f.seg))
			for int(f.i) < len(ns) {
				m := ns[f.i]
				f.i++
				if tr.Target == graph.InvalidNode || m == tr.Target {
					return m, tr.To, true
				}
			}
		}
	}
	return 0, 0, false
}
