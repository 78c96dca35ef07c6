// Package bulk implements Omega's set-semantics evaluation backend: an
// automaton-product reachability engine for exhaustive, unranked RPQ
// workloads (ALL answers, no APPROX/RELAX flexing), where the ranked GetNext
// machinery would pay for an emission order nobody asked for.
//
// The shape follows the boolean-matrix RPQ evaluation literature: intersect
// the query automaton with the data graph and compute the transitive closure
// of the product, extracting (start, final) pairs. Instead of materialising
// N×N boolean matrices, the engine runs a word-parallel multi-source BFS:
// sources are processed in blocks of 64 "lanes", and for every automaton
// state s the visited/frontier structures hold one 64-bit lane-word per graph
// node — advancing one (node, transition) edge advances all 64 sources at
// once. Per-label source bitmaps derived from the CSR adjacency (the row
// dimension of the per-label boolean adjacency matrix) prune transitions that
// cannot fire from a node and derive the Case 3 seed population by
// word-parallel union.
//
// The package is deliberately free of core dependencies: the caller supplies
// seeds and the final-node annotation, and observes progress through
// Run.OnStep (where the core layer enforces budgets, memory watermarks,
// cancellation and failpoints).
package bulk

import (
	"math/bits"
	"sort"

	"omega/internal/automaton"
	"omega/internal/bitset"
	"omega/internal/graph"
)

// Pair is one (source, destination) answer of a bulk evaluation. All pairs of
// an eligible (exact, zero-cost) evaluation are at distance 0.
type Pair struct {
	Src, Dst graph.NodeID
}

// Eligible reports whether a compiled automaton can be evaluated under set
// semantics: every transition and final weight must be zero-cost, so that
// every answer is at distance 0 and any emission order satisfies the ranked
// (non-decreasing distance) contract. Exact-mode automata are zero-cost by
// construction; this is the defensive check the planner relies on.
func Eligible(aut *automaton.Compiled) bool {
	for s := int32(0); s < aut.NumStates; s++ {
		if w, final := aut.IsFinal(s); final && w != 0 {
			return false
		}
		for _, tr := range aut.NextStates(s) {
			if tr.Cost != 0 {
				return false
			}
			if tr.Kind != automaton.Sym && tr.Kind != automaton.Any {
				return false
			}
		}
	}
	return true
}

// trans is one compiled transition with its source-side bitmap mask.
type trans struct {
	labels []graph.LabelID // nil = every label (Any)
	dir    graph.Direction
	to     int32
	target graph.NodeID // landing-node constraint; InvalidNode = none
	mask   *bitset.Set  // nodes with ≥1 matching edge; nil = no pruning
}

// Index is the immutable, plan-cacheable part of a bulk evaluation: the
// automaton flattened with per-transition source masks, the seed population
// (sorted), and the final-node annotation. One Index serves any number of
// concurrent Runs.
type Index struct {
	g      *graph.Graph
	states [][]trans
	start  int32
	final  []bool
	seeds  []graph.NodeID // ascending, de-duplicated
	ann    *bitset.Set    // accepted final nodes; nil = all
	bytes  int64
}

type labelDir struct {
	l   graph.LabelID
	dir graph.Direction
}

// sourceMask returns (building and caching) the bitmap of nodes that have at
// least one edge with label l in direction dir — the row dimension of the
// per-label boolean adjacency matrix.
func sourceMask(g *graph.Graph, cache map[labelDir]*bitset.Set, l graph.LabelID, dir graph.Direction) *bitset.Set {
	key := labelDir{l, dir}
	if m, ok := cache[key]; ok {
		return m
	}
	m := bitset.New(g.NumNodes())
	var nodes []graph.NodeID
	switch dir {
	case graph.Out:
		nodes = g.Tails(l)
	case graph.In:
		nodes = g.Heads(l)
	default:
		nodes = g.TailsAndHeads(l)
	}
	for _, n := range nodes {
		m.Add(int(n))
	}
	cache[key] = m
	return m
}

// NewIndex builds the bulk index for one compiled automaton. seeds, when
// non-nil, is the explicit source population (Case 1: a constant subject);
// when nil the Case 3 population is derived from the start state's
// transitions — the union of the per-label source bitmaps, plus every node of
// the graph when the start state is final (a final start accepts (v, v) for
// any v). ann, when non-nil, restricts accepted destination nodes (a constant
// object's final-state annotation).
func NewIndex(g *graph.Graph, aut *automaton.Compiled, seeds []graph.NodeID, ann []graph.NodeID) *Index {
	ix := &Index{
		g:      g,
		start:  aut.Start,
		states: make([][]trans, aut.NumStates),
		final:  make([]bool, aut.NumStates),
	}
	cache := map[labelDir]*bitset.Set{}
	for s := int32(0); s < aut.NumStates; s++ {
		_, ix.final[s] = aut.IsFinal(s)
		cts := aut.NextStates(s)
		ts := make([]trans, 0, len(cts))
		for i := range cts {
			ct := &cts[i]
			t := trans{dir: ct.Dir, to: ct.To, target: ct.Target}
			if ct.Kind == automaton.Sym {
				t.labels = ct.Labels
				if len(ct.Labels) == 1 {
					t.mask = sourceMask(g, cache, ct.Labels[0], ct.Dir)
				} else {
					m := bitset.New(g.NumNodes())
					for _, l := range ct.Labels {
						m.Union(sourceMask(g, cache, l, ct.Dir))
					}
					t.mask = m
				}
			}
			ts = append(ts, t)
		}
		ix.states[s] = ts
	}

	if seeds != nil {
		dedup := bitset.New(g.NumNodes())
		for _, n := range seeds {
			if dedup.Add(int(n)) {
				ix.seeds = append(ix.seeds, n)
			}
		}
		sort.Slice(ix.seeds, func(i, j int) bool { return ix.seeds[i] < ix.seeds[j] })
	} else if ix.final[ix.start] {
		// Every node is a candidate source (step (iv) of the Case 3 stream).
		ix.seeds = make([]graph.NodeID, g.NumNodes())
		for i := range ix.seeds {
			ix.seeds[i] = graph.NodeID(i)
		}
	} else {
		// Word-parallel union of the start transitions' source bitmaps.
		set := bitset.New(g.NumNodes())
		for i := range ix.states[ix.start] {
			tr := &ix.states[ix.start][i]
			if tr.mask != nil {
				set.Union(tr.mask)
				continue
			}
			for l := 0; l < g.NumLabels(); l++ {
				set.Union(sourceMask(g, cache, graph.LabelID(l), tr.dir))
			}
		}
		ix.seeds = make([]graph.NodeID, 0, set.Len())
		set.Range(func(v int) bool {
			ix.seeds = append(ix.seeds, graph.NodeID(v))
			return true
		})
	}

	if ann != nil {
		ix.ann = bitset.New(g.NumNodes())
		for _, n := range ann {
			ix.ann.Add(int(n))
		}
	}

	seen := map[*bitset.Set]bool{}
	for _, ts := range ix.states {
		for i := range ts {
			if m := ts[i].mask; m != nil && !seen[m] {
				seen[m] = true
				ix.bytes += m.Bytes()
			}
		}
	}
	ix.bytes += int64(cap(ix.seeds)) * 4
	if ix.ann != nil {
		ix.bytes += ix.ann.Bytes()
	}
	return ix
}

// Seeds returns the source population (ascending, de-duplicated). The caller
// must not modify it.
func (ix *Index) Seeds() []graph.NodeID { return ix.seeds }

// Blocks returns the number of 64-lane source blocks a Run will process.
func (ix *Index) Blocks() int { return (len(ix.seeds) + 63) / 64 }

// Bytes returns the index's capacity-based resident footprint: transition
// masks, seed list and annotation bitmap.
func (ix *Index) Bytes() int64 { return ix.bytes }

// Stats aggregates the counters of one Run.
type Stats struct {
	Added    int64 // product lane-bits set (seeds + visited inserts)
	Frontier int64 // (node, state) frontier rows expanded
	Neighbor int64 // CSR adjacency fetches
	Levels   int   // BFS levels across all blocks
	Blocks   int   // source blocks completed
	Pairs    int64 // answer pairs extracted
}

// Run is one bulk evaluation over an Index: per-block word-parallel BFS with
// answer extraction. A Run is single-goroutine and reusable across the
// blocks of its index; concurrent evaluations each need their own Run.
type Run struct {
	ix *Index
	n  int // nodes
	nw int // node-bitmap words

	v, f, nf [][]uint64 // [state][node] lane-words
	// The frontier is carried as explicit node lists, not bitmaps: a BFS
	// level touches a handful of nodes spread across the whole node-id
	// space, so scanning a bitmap per level would cost O(N/64) words per
	// state regardless of how small the frontier is.
	curF, nxtF [][]int32      // [state] frontier node lists (this / next level)
	touched    [][]int32      // [state] nodes with v ≠ 0, for sparse clearing
	cand       []uint64       // node bitmap scratch (multi-final extraction)
	fcand      []int32        // candidate list scratch (multi-final extraction)
	lanes      []graph.NodeID // current block's sources, by lane
	block      int
	out        []Pair

	// OnStep, when non-nil, is invoked after seeding and after every BFS
	// level with the run's resident bytes and the number of product bits the
	// level set. A non-nil return aborts the run with that error — this is
	// where the core layer enforces tuple budgets, memory watermarks,
	// cancellation and failpoints.
	OnStep func(resident int64, added int) error

	Stats Stats
}

// NewRun allocates the per-run structures for ix: 3 lane-word matrices of
// |states|×|nodes| words plus a node bitmap and frontier lists per state.
func NewRun(ix *Index) *Run {
	n := ix.g.NumNodes()
	ns := len(ix.states)
	r := &Run{ix: ix, n: n, nw: (n + 63) / 64}
	mat := func() [][]uint64 {
		m := make([][]uint64, ns)
		for i := range m {
			m[i] = make([]uint64, n)
		}
		return m
	}
	r.v, r.f, r.nf = mat(), mat(), mat()
	r.curF = make([][]int32, ns)
	r.nxtF = make([][]int32, ns)
	r.touched = make([][]int32, ns)
	r.cand = make([]uint64, r.nw)
	return r
}

// Bytes returns the run's capacity-based resident footprint (the lane-word
// matrices dominate: 3 × |states| × |nodes| × 8 bytes).
func (r *Run) Bytes() int64 {
	ns := int64(len(r.ix.states))
	b := 3*ns*int64(r.n)*8 + int64(r.nw)*8
	for s := range r.curF {
		b += int64(cap(r.curF[s])+cap(r.nxtF[s])+cap(r.touched[s])) * 4
	}
	b += int64(cap(r.lanes))*4 + int64(cap(r.fcand))*4
	b += int64(cap(r.out)) * 8
	return b
}

func setBit(row []uint64, i int) { row[i>>6] |= 1 << uint(i&63) }

// clearBlock resets the per-block state via the touched lists, so a block
// over a sparse reachable set never pays a full-matrix memset.
func (r *Run) clearBlock() {
	for s := range r.touched {
		for _, n := range r.touched[s] {
			r.v[s][n] = 0
			r.f[s][n] = 0
			r.nf[s][n] = 0
		}
		r.touched[s] = r.touched[s][:0]
		r.curF[s] = r.curF[s][:0]
		r.nxtF[s] = r.nxtF[s][:0]
	}
}

// NextBlock runs the BFS for the next 64-lane source block and returns its
// answer pairs (destination-major, lanes ascending — deterministic). The
// returned slice is reused by the next call. ok is false when every block has
// been processed.
func (r *Run) NextBlock() (pairs []Pair, ok bool, err error) {
	lo := r.block * 64
	if lo >= len(r.ix.seeds) {
		return nil, false, nil
	}
	r.block++
	hi := lo + 64
	if hi > len(r.ix.seeds) {
		hi = len(r.ix.seeds)
	}
	r.lanes = append(r.lanes[:0], r.ix.seeds[lo:hi]...)
	r.clearBlock()

	ix := r.ix
	start := ix.start

	// Seed the start state: lane i carries source lanes[i].
	seeded := 0
	for lane, node := range r.lanes {
		bit := uint64(1) << uint(lane)
		n := int(node)
		if r.v[start][n] == 0 {
			r.touched[start] = append(r.touched[start], int32(n))
		}
		if r.f[start][n] == 0 {
			r.curF[start] = append(r.curF[start], int32(n))
		}
		r.v[start][n] |= bit
		r.f[start][n] |= bit
		seeded++
	}
	if err := r.step(seeded); err != nil {
		return nil, false, err
	}

	// BFS levels: advance every active (node, state) row one transition,
	// 64 lanes at a time.
	active := true
	for active {
		levelAdded := 0
		for s := range ix.states {
			ts := ix.states[s]
			if len(ts) == 0 {
				continue
			}
			f := r.f[s]
			for _, n32 := range r.curF[s] {
				n := int(n32)
				w := f[n]
				r.Stats.Frontier++
				for ti := range ts {
					tr := &ts[ti]
					if tr.mask != nil && !tr.mask.Contains(n) {
						continue
					}
					if tr.labels != nil {
						for _, l := range tr.labels {
							levelAdded += r.expand(w, n, l, tr)
						}
					} else {
						for l := 0; l < ix.g.NumLabels(); l++ {
							levelAdded += r.expand(w, n, graph.LabelID(l), tr)
						}
					}
				}
			}
		}
		// Retire this level's frontier and promote the next one.
		active = false
		for s := range ix.states {
			f := r.f[s]
			for _, n := range r.curF[s] {
				f[n] = 0
			}
			r.curF[s] = r.curF[s][:0]
			r.f[s], r.nf[s] = r.nf[s], r.f[s]
			r.curF[s], r.nxtF[s] = r.nxtF[s], r.curF[s]
			if len(r.curF[s]) > 0 {
				active = true
			}
		}
		r.Stats.Levels++
		if err := r.step(levelAdded); err != nil {
			return nil, false, err
		}
		if !active {
			break
		}
	}

	// Extraction: candidate destinations are the visited nodes of the final
	// states, walked via the touched lists so a block over a sparse reachable
	// set never scans the full node space. With several final states the cand
	// bitmap de-duplicates nodes shared between their lists (only the touched
	// words are dirtied and re-cleared).
	nFinal := 0
	lastFinal := -1
	for s := range ix.states {
		if ix.final[s] {
			nFinal++
			lastFinal = s
		}
	}
	r.out = r.out[:0]
	if nFinal == 1 {
		s := lastFinal
		v := r.v[s]
		for _, n32 := range r.touched[s] {
			n := int(n32)
			if ix.ann != nil && !ix.ann.Contains(n) {
				continue
			}
			r.emitLanes(v[n], graph.NodeID(n))
		}
	} else if nFinal > 1 {
		r.fcand = r.fcand[:0]
		for s := range ix.states {
			if !ix.final[s] {
				continue
			}
			for _, n32 := range r.touched[s] {
				n := int(n32)
				if r.cand[n>>6]&(1<<uint(n&63)) != 0 {
					continue
				}
				if ix.ann != nil && !ix.ann.Contains(n) {
					continue
				}
				setBit(r.cand, n)
				r.fcand = append(r.fcand, n32)
			}
		}
		for _, n32 := range r.fcand {
			n := int(n32)
			var w uint64
			for s := range ix.states {
				if ix.final[s] {
					w |= r.v[s][n]
				}
			}
			r.emitLanes(w, graph.NodeID(n))
			r.cand[n>>6] &^= 1 << uint(n&63)
		}
	}
	r.Stats.Pairs += int64(len(r.out))
	r.Stats.Blocks++
	return r.out, true, nil
}

// emitLanes appends one Pair per set lane of w, lanes ascending.
func (r *Run) emitLanes(w uint64, dst graph.NodeID) {
	for w != 0 {
		lane := bits.TrailingZeros64(w)
		r.out = append(r.out, Pair{Src: r.lanes[lane], Dst: dst})
		w &^= 1 << uint(lane)
	}
}

// expand advances lane-word w from node n over one (transition, label) pair.
// Neighbor lists come straight out of the CSR arrays (zero-copy); Both-
// direction transitions scan the two sides back to back.
func (r *Run) expand(w uint64, n int, l graph.LabelID, tr *trans) int {
	r.Stats.Neighbor++
	added := 0
	if tr.dir == graph.Out || tr.dir == graph.Both {
		added += r.scan(w, r.ix.g.Neighbors(graph.NodeID(n), l, graph.Out), tr)
	}
	if tr.dir == graph.In || tr.dir == graph.Both {
		added += r.scan(w, r.ix.g.Neighbors(graph.NodeID(n), l, graph.In), tr)
	}
	return added
}

// scan runs the word-parallel visited/frontier kernel for lane-word w over
// one neighbour list.
func (r *Run) scan(w uint64, nbrs []graph.NodeID, tr *trans) int {
	added := 0
	to := tr.to
	v, nf := r.v[to], r.nf[to]
	for _, mm := range nbrs {
		if tr.target != graph.InvalidNode && mm != tr.target {
			continue
		}
		m := int(mm)
		add := w &^ v[m]
		if add == 0 {
			continue
		}
		if v[m] == 0 {
			r.touched[to] = append(r.touched[to], int32(m))
		}
		v[m] |= add
		if nf[m] == 0 {
			r.nxtF[to] = append(r.nxtF[to], int32(m))
		}
		nf[m] |= add
		added += bits.OnesCount64(add)
	}
	return added
}

func (r *Run) step(added int) error {
	r.Stats.Added += int64(added)
	if r.OnStep == nil {
		return nil
	}
	return r.OnStep(r.Bytes(), added)
}
