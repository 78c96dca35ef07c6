package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"omega/internal/bulk"
	"omega/internal/dstruct"
	"omega/internal/graph"
)

// QueryAnswer is one row of a CRP query result: node bindings for the head
// variables, at the given total distance (sum of conjunct distances).
type QueryAnswer struct {
	Head  []string
	Nodes []graph.NodeID
	Dist  int32
}

// Binding returns the node bound to head variable name, or InvalidNode.
func (a QueryAnswer) Binding(name string) graph.NodeID {
	for i, h := range a.Head {
		if h == name {
			return a.Nodes[i]
		}
	}
	return graph.InvalidNode
}

func projKey(nodes []graph.NodeID) string {
	var b strings.Builder
	for _, n := range nodes {
		b.WriteString(strconv.Itoa(int(n)))
		b.WriteByte('|')
	}
	return b.String()
}

// projDedup de-duplicates projected head rows. Rows of width ≤ 2 pack their
// bindings into one word probed in a flat dstruct.U64Set — NodeIDs are
// non-negative int32s, so the packed word never sets bit 63, the set's
// empty-slot marker. Wider heads fall back to a string-keyed map.
type projDedup struct {
	packed *dstruct.U64Set     // nil when width > 2
	wide   map[string]struct{} // nil unless width > 2
}

func newProjDedup(width int) *projDedup {
	if width > 2 {
		return &projDedup{wide: map[string]struct{}{}}
	}
	return &projDedup{packed: dstruct.NewU64Set()}
}

// add records the row, reporting whether it was newly added.
func (d *projDedup) add(nodes []graph.NodeID) bool {
	if d.wide != nil {
		k := projKey(nodes)
		if _, dup := d.wide[k]; dup {
			return false
		}
		d.wide[k] = struct{}{}
		return true
	}
	var k uint64
	switch len(nodes) {
	case 0: // unreachable through Validate (empty heads are rejected)
		k = 0
	case 1:
		k = uint64(uint32(nodes[0]))
	default:
		k = packPair(nodes[0], nodes[1])
	}
	return d.packed.Add(k)
}

// singleConjunct adapts a conjunct iterator directly (no join machinery), so
// single-conjunct queries — the whole of the paper's performance study —
// stream answers with no buffering. Projections that collapse answers (e.g.
// head (?X) over conjunct (?X,R,?Y)) are de-duplicated, keeping the first
// (minimum-distance) occurrence. dedup may be nil when the underlying
// iterator already guarantees distinct rows (the bulk backend with an
// injective projection).
type singleConjunct struct {
	q     *Query
	it    Iterator
	bulk  *bulkIterator // it, when it is the bulk backend unwrapped: the one source of multi-row batches
	dedup *projDedup
	hmap  []uint8        // per head position: 0 = conjunct Src, 1 = Dst (built lazily)
	one   [1]bulk.Pair   // a row-at-a-time iterator's answer, as a batch of one
	nodes []graph.NodeID // batch-owned row storage, overwritten by every NextBatch
}

// NextBatch blocks for the conjunct's next answer, then projects whatever
// else it has ready — the rest of the bulk backend's current lane block; from
// every ranked driver and merger nothing, their next answer is more search,
// so a batch of one — into dst. Rows alias s.nodes.
func (s *singleConjunct) NextBatch(dst []QueryAnswer) (int, error) {
	if s.hmap == nil {
		// Resolve each head position to a conjunct endpoint once; the
		// per-answer loop is then two indexed stores, not string compares.
		c := s.q.Conjuncts[0]
		hmap := make([]uint8, len(s.q.Head))
		for i, h := range s.q.Head {
			switch {
			case c.Subject.IsVar && c.Subject.Name == h:
				hmap[i] = 0
			case c.Object.IsVar && c.Object.Name == h:
				hmap[i] = 1
			default:
				return 0, fmt.Errorf("core: head variable not bound by conjunct")
			}
		}
		s.hmap = hmap
	}
	head, w := s.q.Head, len(s.hmap)
	if need := len(dst) * w; cap(s.nodes) < need {
		s.nodes = make([]graph.NodeID, need)
	}
	for {
		var pairs []bulk.Pair
		var dist int32
		if s.bulk != nil {
			ps, err := s.bulk.nextPairs(len(dst))
			if len(ps) == 0 {
				return 0, err
			}
			pairs = ps
		} else {
			a, ok, err := s.it.Next()
			if !ok || err != nil {
				return 0, err
			}
			s.one[0] = bulk.Pair{Src: a.Src, Dst: a.Dst}
			pairs, dist = s.one[:], a.Dist
		}
		n := 0
		for _, p := range pairs {
			// Project straight into the row's slot; a duplicate leaves the
			// slot to the next pair. Full-capacity bounded, so no append
			// through a row can touch its neighbour.
			row := s.nodes[n*w : (n+1)*w : (n+1)*w]
			for i, m := range s.hmap {
				if m == 0 {
					row[i] = p.Src
				} else {
					row[i] = p.Dst
				}
			}
			if s.dedup != nil && !s.dedup.add(row) {
				continue
			}
			d := &dst[n]
			d.Head, d.Nodes, d.Dist = head, row, dist
			n++
		}
		if n > 0 {
			return n, nil
		}
	}
}

// Stats reports the conjunct iterator's counters.
func (s *singleConjunct) Stats() Stats { return s.it.Stats() }

// peekIterator adds one-answer lookahead to an Iterator.
type peekIterator struct {
	it   Iterator
	buf  Answer
	has  bool
	done bool
	err  error
}

func (p *peekIterator) peek() (Answer, bool, error) {
	if p.err != nil || p.done {
		return Answer{}, false, p.err
	}
	if !p.has {
		a, ok, err := p.it.Next()
		if err != nil {
			p.err = err
			return Answer{}, false, err
		}
		if !ok {
			p.done = true
			return Answer{}, false, nil
		}
		p.buf, p.has = a, true
	}
	return p.buf, true, nil
}

func (p *peekIterator) consume() Answer {
	p.has = false
	return p.buf
}

// rankedJoin combines n ≥ 2 conjunct iterators, emitting joined answers in
// non-decreasing total distance. It works in rounds: in round D it pulls
// every conjunct's answers through distance D (each iterator is itself
// non-decreasing) and enumerates the binding-compatible combinations whose
// distances sum to exactly D. Conjunct distances are small integers in
// practice (unit operation costs), so the rounds advance quickly.
type rankedJoin struct {
	q    *Query
	raw  []Iterator // the conjunct iterators, for Stats aggregation
	its  []*peekIterator
	byD  []map[int32][]Answer
	maxD []int32
	dMax int32 // largest per-conjunct distance seen anywhere

	d       int32
	queue   []QueryAnswer
	qi      int
	emitted *projDedup
	done    bool
}

func newRankedJoin(q *Query, its []Iterator) *rankedJoin {
	rj := &rankedJoin{
		q:       q,
		raw:     its,
		emitted: newProjDedup(len(q.Head)),
	}
	for _, it := range its {
		rj.its = append(rj.its, &peekIterator{it: it})
		rj.byD = append(rj.byD, map[int32][]Answer{})
		rj.maxD = append(rj.maxD, -1)
	}
	return rj
}

func (rj *rankedJoin) Next() (QueryAnswer, bool, error) {
	for {
		if rj.qi < len(rj.queue) {
			a := rj.queue[rj.qi]
			rj.qi++
			return a, true, nil
		}
		if rj.done {
			return QueryAnswer{}, false, nil
		}
		if err := rj.runRound(); err != nil {
			rj.done = true
			return QueryAnswer{}, false, err
		}
	}
}

func (rj *rankedJoin) runRound() error {
	D := rj.d
	rj.d++

	// Pull every conjunct through distance D.
	allDone := true
	for i, p := range rj.its {
		for {
			a, ok, err := p.peek()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if a.Dist > D {
				allDone = false
				break
			}
			p.consume()
			rj.byD[i][a.Dist] = append(rj.byD[i][a.Dist], a)
			if a.Dist > rj.maxD[i] {
				rj.maxD[i] = a.Dist
			}
			if a.Dist > rj.dMax {
				rj.dMax = a.Dist
			}
		}
	}

	// Enumerate combinations with total distance exactly D.
	rj.queue = rj.queue[:0]
	rj.qi = 0
	binding := map[string]graph.NodeID{}
	rj.combine(0, D, binding)
	sort.Slice(rj.queue, func(i, j int) bool {
		a, b := rj.queue[i], rj.queue[j]
		for k := range a.Nodes {
			if a.Nodes[k] != b.Nodes[k] {
				return a.Nodes[k] < b.Nodes[k]
			}
		}
		return false
	})

	// Termination: every iterator exhausted and D beyond the largest
	// possible total.
	if allDone {
		var maxTotal int32
		for _, m := range rj.maxD {
			if m < 0 {
				// A conjunct produced no answers at all: the join is empty.
				rj.done = true
				return nil
			}
			maxTotal += m
		}
		if D >= maxTotal {
			rj.done = true
		}
	}
	return nil
}

// Stats folds the conjunct iterators' counters into one Stats: counter fields
// sum, VisitedSize and Phases take the per-conjunct maximum (following the ψ-phase driver's convention). This is
// what lets a server log per-request pops/deferred/reinjected for
// multi-conjunct queries too.
func (rj *rankedJoin) Stats() Stats {
	var s Stats
	for _, it := range rj.raw {
		cs := it.Stats()
		s.add(cs)
		s.VisitedSize = max(s.VisitedSize, cs.VisitedSize)
		s.Phases = max(s.Phases, cs.Phases)
	}
	return s
}

// combine recursively assigns each conjunct an answer whose distances sum to
// exactly `remaining`, with consistent variable bindings.
func (rj *rankedJoin) combine(i int, remaining int32, binding map[string]graph.NodeID) {
	if i == len(rj.its) {
		if remaining != 0 {
			return
		}
		nodes := make([]graph.NodeID, len(rj.q.Head))
		for k, h := range rj.q.Head {
			nodes[k] = binding[h]
		}
		if !rj.emitted.add(nodes) {
			return
		}
		rj.queue = append(rj.queue, QueryAnswer{Head: rj.q.Head, Nodes: nodes, Dist: rj.d - 1})
		return
	}
	c := rj.q.Conjuncts[i]
	for dist, answers := range rj.byD[i] {
		if dist > remaining {
			continue
		}
		for _, a := range answers {
			var set []string
			ok := true
			if c.Subject.IsVar {
				if old, bound := binding[c.Subject.Name]; bound {
					ok = old == a.Src
				} else {
					binding[c.Subject.Name] = a.Src
					set = append(set, c.Subject.Name)
				}
			}
			if ok && c.Object.IsVar {
				if old, bound := binding[c.Object.Name]; bound {
					ok = old == a.Dst
				} else {
					binding[c.Object.Name] = a.Dst
					set = append(set, c.Object.Name)
				}
			}
			if ok {
				rj.combine(i+1, remaining-dist, binding)
			}
			for _, name := range set {
				delete(binding, name)
			}
		}
	}
}
