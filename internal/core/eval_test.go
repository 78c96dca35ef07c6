package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"omega/internal/automaton"
	"omega/internal/graph"
	"omega/internal/ontology"
	"omega/internal/rpq"
)

// --- independent reference implementation ---------------------------------
//
// refConjunct computes conjunct answers by a direct Dijkstra over the
// product of the *raw* NFA (ε-transitions intact, no compilation) and the
// graph. It shares none of the evaluation machinery under test (no D_R, no
// visited set, no batching, no annotations logic beyond the spec formulas).

type prodItem struct {
	node  graph.NodeID
	state int32
	dist  int32
}

type prodHeap []prodItem

func (h prodHeap) Len() int            { return len(h) }
func (h prodHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h prodHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *prodHeap) Push(x interface{}) { *h = append(*h, x.(prodItem)) }
func (h *prodHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refNeighbours lists (m, cost) successors of (n, s) in the product.
func refNeighbours(g *graph.Graph, ont *ontology.Ontology, n *automaton.NFA, node graph.NodeID, state int32, visit func(m graph.NodeID, s int32, cost int32)) {
	for _, t := range n.Trans {
		if t.From != state {
			continue
		}
		switch t.Kind {
		case automaton.Eps:
			visit(node, t.To, t.Cost)
		case automaton.Sym:
			labels := []string{t.Label}
			if t.Expand && ont != nil {
				labels = append(labels, ont.PropertyDescendants(t.Label)...)
			}
			for _, lname := range labels {
				l, ok := g.Label(lname)
				if !ok {
					continue
				}
				dirs := []graph.Direction{t.Dir}
				if t.Dir == graph.Both {
					dirs = []graph.Direction{graph.Out, graph.In}
				}
				for _, dir := range dirs {
					for _, m := range g.Neighbors(node, l, dir) {
						if t.TargetClass != "" && g.NodeLabel(m) != t.TargetClass {
							continue
						}
						visit(m, t.To, t.Cost)
					}
				}
			}
		case automaton.Any:
			// Every label's own lists, not the incidence index the
			// evaluator walks.
			for l := range g.NumLabels() {
				for _, m := range g.Neighbors(node, graph.LabelID(l), t.Dir) {
					if t.TargetClass == "" || g.NodeLabel(m) == t.TargetClass {
						visit(m, t.To, t.Cost)
					}
				}
			}
		}
	}
}

// refConjunct returns the exact answer set {(src,dst) -> min distance} for a
// conjunct under the given options.
func refConjunct(t *testing.T, g *graph.Graph, ont *ontology.Ontology, c Conjunct, opts Options) map[uint64]int32 {
	t.Helper()
	opts = opts.withDefaults()
	subj, obj := c.Subject, c.Object
	reverse := false
	if subj.IsVar && !obj.IsVar {
		subj, obj = obj, subj
		reverse = true
	}
	sameVar := subj.IsVar && obj.IsVar && subj.Name == obj.Name

	nfa := automaton.FromRegexp(c.Expr)
	if reverse {
		var err error
		nfa, err = nfa.Reverse()
		if err != nil {
			t.Fatalf("reference Reverse: %v", err)
		}
	}
	relaxing := c.Mode == automaton.Relax || c.Mode == automaton.Flex
	switch c.Mode {
	case automaton.Approx:
		nfa = nfa.Approx(opts.Edit)
	case automaton.Relax:
		nfa = nfa.Relax(ont, opts.Relax, opts.EnableRule2)
	case automaton.Flex:
		nfa = nfa.Relax(ont, opts.Relax, opts.EnableRule2).Approx(opts.Edit)
	}

	// Seeds per Open: constant → node (plus class ancestors under RELAX);
	// variable → every node at cost 0.
	type refSeed struct {
		n graph.NodeID
		c int32
	}
	var seeds []refSeed
	if subj.IsVar {
		for n := 0; n < g.NumNodes(); n++ {
			seeds = append(seeds, refSeed{graph.NodeID(n), 0})
		}
	} else if relaxing && ont != nil && ont.IsClass(subj.Name) {
		for _, e := range ont.ClassAncestors(subj.Name) {
			if node, ok := g.LookupNode(e.Name); ok {
				seeds = append(seeds, refSeed{node, int32(e.Dist) * opts.Relax.Beta})
			}
		}
	} else if node, ok := g.LookupNode(subj.Name); ok {
		seeds = append(seeds, refSeed{node, 0})
	}

	// Final annotation.
	var finalAnn map[graph.NodeID]int32
	if !obj.IsVar {
		finalAnn = map[graph.NodeID]int32{}
		if relaxing && ont != nil && ont.IsClass(obj.Name) {
			for _, e := range ont.ClassAncestors(obj.Name) {
				if node, ok := g.LookupNode(e.Name); ok {
					cost := int32(e.Dist) * opts.Relax.Beta
					if old, dup := finalAnn[node]; !dup || cost < old {
						finalAnn[node] = cost
					}
				}
			}
		} else if node, ok := g.LookupNode(obj.Name); ok {
			finalAnn[node] = 0
		}
	}

	out := map[uint64]int32{}
	for _, sd := range seeds {
		dist := map[int64]int32{}
		pq := &prodHeap{}
		keyOf := func(n graph.NodeID, s int32) int64 { return int64(n)<<32 | int64(uint32(s)) }
		push := func(n graph.NodeID, s, d int32) {
			k := keyOf(n, s)
			if old, ok := dist[k]; ok && old <= d {
				return
			}
			dist[k] = d
			heap.Push(pq, prodItem{n, s, d})
		}
		push(sd.n, nfa.Start, sd.c)
		for pq.Len() > 0 {
			it := heap.Pop(pq).(prodItem)
			if dist[keyOf(it.node, it.state)] < it.dist {
				continue
			}
			if w, ok := nfa.Finals[it.state]; ok {
				extra, match := int32(0), true
				if finalAnn != nil {
					extra, match = finalAnn[it.node], false
					if e, ok := finalAnn[it.node]; ok {
						extra, match = e, true
					}
				}
				if match {
					total := it.dist + w + extra
					src, dst := sd.n, it.node
					if reverse {
						src, dst = dst, src
					}
					if sameVar && src != dst {
						// skip
					} else {
						k := packPair(src, dst)
						if old, ok := out[k]; !ok || total < old {
							out[k] = total
						}
					}
				}
			}
			refNeighbours(g, ont, nfa, it.node, it.state, func(m graph.NodeID, s, cost int32) {
				push(m, s, it.dist+cost)
			})
		}
	}
	return out
}

// drain pulls all answers from an iterator, checking monotone distances.
func drain(t *testing.T, it Iterator, limit int) []Answer {
	t.Helper()
	var out []Answer
	last := int32(-1)
	for len(out) < limit {
		a, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		if a.Dist < last {
			t.Fatalf("answers not monotone: %d after %d", a.Dist, last)
		}
		last = a.Dist
		out = append(out, a)
	}
	return out
}

func answersAsMap(t *testing.T, as []Answer) map[uint64]int32 {
	t.Helper()
	m := map[uint64]int32{}
	for _, a := range as {
		if _, dup := m[packPair(a.Src, a.Dst)]; dup {
			t.Fatalf("duplicate answer pair (%d,%d)", a.Src, a.Dst)
		}
		m[packPair(a.Src, a.Dst)] = a.Dist
	}
	return m
}

// --- fixtures --------------------------------------------------------------

// tinyGraph: a -p-> b -p-> c, a -q-> c, c -p-> a, plus type edges to classes.
func tinyGraph(t testing.TB) (*graph.Graph, *ontology.Ontology) {
	b := graph.NewBuilder()
	triples := [][3]string{
		{"a", "p", "b"},
		{"b", "p", "c"},
		{"a", "q", "c"},
		{"c", "p", "a"},
		{"a", "type", "C1"},
		{"b", "type", "C1"},
		{"b", "type", "C0"}, // materialised closure: C1 sc C0
		{"a", "type", "C0"},
		{"c", "type", "C2"},
		{"c", "type", "C0"},
	}
	for _, tr := range triples {
		if err := b.AddTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatalf("AddTriple: %v", err)
		}
	}
	o := ontology.New()
	o.AddSubclass("C1", "C0")
	o.AddSubclass("C2", "C0")
	o.AddSubproperty("p", "link")
	o.AddSubproperty("q", "link")
	return b.Freeze(), o
}

func conj(subj, re, obj string, mode automaton.Mode) Conjunct {
	term := func(s string) Term {
		if len(s) > 0 && s[0] == '?' {
			return Var(s[1:])
		}
		return Const(s)
	}
	return Conjunct{Subject: term(subj), Expr: rpq.MustParse(re), Object: term(obj), Mode: mode}
}

// --- fixed-case tests ------------------------------------------------------

func TestExactCase1(t *testing.T) {
	g, ont := tinyGraph(t)
	it, err := OpenConjunct(g, ont, conj("a", "p.p", "?X", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 100)
	if len(as) != 1 {
		t.Fatalf("answers = %v, want exactly one", as)
	}
	c, _ := g.LookupNode("c")
	if as[0].Dst != c || as[0].Dist != 0 {
		t.Fatalf("answer = %+v, want (a,c,0)", as[0])
	}
}

func TestExactCase2ReversesCorrectly(t *testing.T) {
	g, ont := tinyGraph(t)
	// (?X, p.p, c): paths x -p-> y -p-> c; only a -p-> b -p-> c.
	it, err := OpenConjunct(g, ont, conj("?X", "p.p", "c", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 100)
	a, _ := g.LookupNode("a")
	c, _ := g.LookupNode("c")
	if len(as) != 1 || as[0].Src != a || as[0].Dst != c {
		t.Fatalf("answers = %+v, want [(a,c,0)]", as)
	}
}

func TestExactCase3(t *testing.T) {
	g, ont := tinyGraph(t)
	it, err := OpenConjunct(g, ont, conj("?X", "p", "?Y", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 100)
	if len(as) != 3 {
		t.Fatalf("got %d answers, want 3 p-edges", len(as))
	}
	for _, a := range as {
		if a.Dist != 0 {
			t.Fatalf("exact answer at distance %d", a.Dist)
		}
	}
}

func TestExactBothConstants(t *testing.T) {
	g, ont := tinyGraph(t)
	it, err := OpenConjunct(g, ont, conj("a", "p|q", "c", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	if len(as) != 1 {
		t.Fatalf("answers = %+v, want one (a,c)", as)
	}
	it2, err := OpenConjunct(g, ont, conj("a", "p", "c", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as2 := drain(t, it2, 10); len(as2) != 0 {
		t.Fatalf("(a,p,c) answers = %+v, want none", as2)
	}
}

func TestSameVarConjunct(t *testing.T) {
	g, ont := tinyGraph(t)
	// (?X, p.p.p, ?X): cycle a->b->c->a gives three reflexive answers.
	it, err := OpenConjunct(g, ont, conj("?X", "p.p.p", "?X", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 100)
	if len(as) != 3 {
		t.Fatalf("answers = %+v, want the 3 cycle nodes", as)
	}
	for _, a := range as {
		if a.Src != a.Dst {
			t.Fatalf("non-reflexive answer %+v from same-var conjunct", a)
		}
	}
}

func TestUnknownConstantYieldsNothing(t *testing.T) {
	g, ont := tinyGraph(t)
	it, err := OpenConjunct(g, ont, conj("nope", "p", "?X", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drain(t, it, 10); len(as) != 0 {
		t.Fatalf("answers = %+v, want none for unknown constant", as)
	}
}

func TestEpsilonConjunctStarAnswersSelf(t *testing.T) {
	g, ont := tinyGraph(t)
	// (?X, p*, ?Y) must include (n,n,0) for every node plus p-paths: this is
	// the weight(s0)=0 branch of Open where the literal pseudocode would
	// never expand successors (see DESIGN.md).
	it, err := OpenConjunct(g, ont, conj("?X", "p*", "?Y", automaton.Exact), Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := answersAsMap(t, drain(t, it, 1000))
	ref := refConjunct(t, g, ont, conj("?X", "p*", "?Y", automaton.Exact), Options{})
	if len(as) != len(ref) {
		t.Fatalf("got %d answers, reference %d", len(as), len(ref))
	}
	for k, d := range ref {
		if as[k] != d {
			t.Fatalf("answer %x: dist %d, reference %d", k, as[k], d)
		}
	}
	if len(as) < g.NumNodes() {
		t.Fatalf("p* missing reflexive answers: %d < %d", len(as), g.NumNodes())
	}
}

func TestApproxExample2Shape(t *testing.T) {
	// Mirror of paper Example 2 in miniature: a query with wrong direction
	// returns nothing exactly, and answers at distance 1 under APPROX.
	b := graph.NewBuilder()
	mustAdd(t, b, "UK", "isLocatedIn", "Europe")
	mustAdd(t, b, "Oxford", "isLocatedIn", "UK")
	mustAdd(t, b, "alice", "gradFrom", "Oxford")
	g := b.Freeze()

	q := conj("UK", "isLocatedIn-.gradFrom", "?X", automaton.Exact)
	it, err := OpenConjunct(g, nil, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drain(t, it, 10); len(as) != 0 {
		t.Fatalf("exact answers = %+v, want none", as)
	}

	q.Mode = automaton.Approx
	it, err = OpenConjunct(g, nil, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	alice, _ := g.LookupNode("alice")
	found := false
	for _, a := range as {
		if a.Dst == alice && a.Dist == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("APPROX answers = %+v, want alice at distance 1", as)
	}
}

func mustAdd(t testing.TB, b *graph.Builder, s, p, o string) {
	t.Helper()
	if err := b.AddTriple(s, p, o); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxClassAncestorSeeds(t *testing.T) {
	g, ont := tinyGraph(t)
	// (C2, type-, ?X) exact: only c. RELAX: seeds C2 (dist 0) and C0 (cost β):
	// C0's instances a, b, c appear at distance 1.
	q := conj("C2", "type-", "?X", automaton.Exact)
	it, err := OpenConjunct(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if as := drain(t, it, 10); len(as) != 1 {
		t.Fatalf("exact answers = %+v, want just c", as)
	}

	q.Mode = automaton.Relax
	it, err = OpenConjunct(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	if len(as) != 4 {
		t.Fatalf("RELAX answers = %+v, want 4 (c at 0; a,b,c-via-C0 at 1)", as)
	}
	if as[0].Dist != 0 {
		t.Fatalf("first RELAX answer at distance %d, want 0", as[0].Dist)
	}
	for _, a := range as[1:] {
		if a.Dist != 1 {
			t.Fatalf("relaxed answer %+v, want distance 1", a)
		}
	}
}

func TestRelaxSubpropertyViaParent(t *testing.T) {
	g, ont := tinyGraph(t)
	// (a, q, ?X) exact: only c. RELAX: q relaxes to link (cost 1), which
	// matches p edges too: b at distance 1.
	q := conj("a", "q", "?X", automaton.Relax)
	it, err := OpenConjunct(g, ont, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, it, 10)
	bNode, _ := g.LookupNode("b")
	cNode, _ := g.LookupNode("c")
	m := answersAsMap(t, as)
	if m[packPair(mustNode(t, g, "a"), cNode)] != 0 {
		t.Fatalf("exact answer missing: %v", as)
	}
	if d, ok := m[packPair(mustNode(t, g, "a"), bNode)]; !ok || d != 1 {
		t.Fatalf("relaxed answer (a,b) = (%d,%v), want distance 1", d, ok)
	}
}

func mustNode(t testing.TB, g *graph.Graph, label string) graph.NodeID {
	t.Helper()
	n, ok := g.LookupNode(label)
	if !ok {
		t.Fatalf("node %q missing", label)
	}
	return n
}

func TestTupleBudget(t *testing.T) {
	g, ont := tinyGraph(t)
	q := conj("?X", "p*", "?Y", automaton.Approx)
	it, err := OpenConjunct(g, ont, q, Options{MaxTuples: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_, ok, err := it.Next()
		if err != nil {
			if err != ErrTupleBudget {
				t.Fatalf("error = %v, want ErrTupleBudget", err)
			}
			// Errors must be sticky.
			if _, _, err2 := it.Next(); err2 != ErrTupleBudget {
				t.Fatalf("second error = %v, want sticky ErrTupleBudget", err2)
			}
			return
		}
		if !ok {
			t.Fatal("iterator ended without hitting the tuple budget")
		}
	}
	t.Fatal("budget never hit")
}

func TestRelaxWithoutOntologyFails(t *testing.T) {
	g, _ := tinyGraph(t)
	if _, err := OpenConjunct(g, nil, conj("a", "p", "?X", automaton.Relax), Options{}); err == nil {
		t.Fatal("RELAX without ontology accepted")
	}
}

// TestStatsNeighborCalls pins NeighborCalls as one call per transition Succ
// expanded: an exhaustive run expands every configuration (n, s) reachable
// from the seed exactly once, so it counts Σ len(NextStates(s)) over them,
// which an independent breadth-first search over the compiled automaton
// gives. EXACT p.q|p.p leaves the start state with two p transitions to
// different states, whose neighbour lists are the same: each counts. Under
// APPROX p.p the costed wildcard transitions form runs, and each member of a
// run counts one call although one continuation walks the run.
func TestStatsNeighborCalls(t *testing.T) {
	g, ont := tinyGraph(t)
	for _, c := range []struct {
		expr string
		mode automaton.Mode
	}{{"p.q|p.p", automaton.Exact}, {"p.p", automaton.Approx}} {
		cj := conj("a", c.expr, "?X", c.mode)
		p, err := compileConjunct(g, ont, cj, Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		aut := p.auts[0]
		runs := false
		for i := range aut.Trans {
			runs = runs || aut.Trans[i].Prev >= 0
		}
		if runs != (c.mode == automaton.Approx) {
			t.Fatalf("%s %v: automaton has runs = %v", c.mode, c.expr, runs)
		}
		it, err := OpenConjunct(g, ont, cj, Options{})
		if err != nil {
			t.Fatal(err)
		}
		drain(t, it, 1<<20)
		if got, want := it.Stats().NeighborCalls, reachableTransitions(g, aut, p.seeds); got != want {
			t.Errorf("%v %s: NeighborCalls = %d, want %d, one per transition expanded", c.mode, c.expr, got, want)
		}
	}
}

// reachableTransitions is Σ len(NextStates(s)) over the configurations
// (n, s) reachable from the seeds over every compiled transition.
func reachableTransitions(g *graph.Graph, aut *automaton.Compiled, seeds []seed) int {
	type config struct {
		n graph.NodeID
		s int32
	}
	seen := map[config]bool{}
	var queue []config
	visit := func(c config) {
		if !seen[c] {
			seen[c] = true
			queue = append(queue, c)
		}
	}
	for _, sd := range seeds {
		visit(config{sd.node, aut.Start})
	}
	total := 0
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		states := aut.NextStates(c.s)
		total += len(states)
		for _, tr := range states {
			labels := tr.Labels
			if tr.Kind == automaton.Any {
				labels = nil
				for l := range g.NumLabels() {
					labels = append(labels, graph.LabelID(l))
				}
			}
			for _, l := range labels {
				for _, dir := range []graph.Direction{graph.Out, graph.In} {
					if tr.Dir != graph.Both && tr.Dir != dir {
						continue
					}
					for _, m := range g.Neighbors(c.n, l, dir) {
						if tr.Target == graph.InvalidNode || m == tr.Target {
							visit(config{m, tr.To})
						}
					}
				}
			}
		}
	}
	return total
}

// --- randomised equivalence against the reference -------------------------

// randBatchSize draws a Case 3 batch size from sizes and, one time in four,
// replaces it with one above any node count: every initial node is seeded up
// front, the ablation of the Open/GetNext coroutines.
func randBatchSize(rng *rand.Rand, sizes ...int) int {
	size := sizes[rng.Intn(len(sizes))]
	if rng.Intn(4) == 0 {
		size = math.MaxInt32
	}
	return size
}

func randomGraph(rng *rand.Rand, ont *ontology.Ontology) *graph.Graph {
	b := graph.NewBuilder()
	nNodes := 4 + rng.Intn(12)
	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		b.AddNode(names[i])
	}
	labels := []string{"p", "q", "r"}
	nEdges := rng.Intn(40)
	for i := 0; i < nEdges; i++ {
		src := names[rng.Intn(nNodes)]
		dst := names[rng.Intn(nNodes)]
		_ = b.AddTriple(src, labels[rng.Intn(len(labels))], dst)
	}
	// Attach some instances to the small class hierarchy C1,C2 sc C0 with
	// materialised closure, so RELAX has something to chew on.
	for _, cls := range []string{"C0", "C1", "C2"} {
		b.AddNode(cls)
	}
	for i := 0; i < nNodes; i++ {
		if rng.Intn(2) == 0 {
			leaf := []string{"C1", "C2"}[rng.Intn(2)]
			_ = b.AddTriple(names[i], "type", leaf)
			_ = b.AddTriple(names[i], "type", "C0")
		}
	}
	return b.Freeze()
}

func testOnt() *ontology.Ontology {
	o := ontology.New()
	o.AddSubclass("C1", "C0")
	o.AddSubclass("C2", "C0")
	o.AddSubproperty("p", "link")
	o.AddSubproperty("q", "link")
	return o
}

var equivalenceExprs = []string{
	"p", "p-", "p.q", "p|q", "p*", "p+", "(p|q).r", "p.q-", "_",
	"p.p", "(p.q)|r", "p?", "type-", "p*.q",
}

func checkEquivalence(t *testing.T, g *graph.Graph, ont *ontology.Ontology, c Conjunct, opts Options, capped bool, maxPsi int32) {
	t.Helper()
	it, err := OpenConjunct(g, ont, c, opts)
	if err != nil {
		t.Fatalf("%s: OpenConjunct: %v", c, err)
	}
	got := answersAsMap(t, drain(t, it, 1<<20))
	ref := refConjunct(t, g, ont, c, opts)
	if capped {
		for k, d := range ref {
			if d > maxPsi {
				delete(ref, k)
			}
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%s opts=%+v: %d answers, reference %d\ngot=%v\nref=%v", c, opts, len(got), len(ref), got, ref)
	}
	for k, d := range ref {
		if gd, ok := got[k]; !ok || gd != d {
			t.Fatalf("%s opts=%+v: pair %x dist=%d, reference %d", c, opts, k, gd, d)
		}
	}
}

func TestQuickExactAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ont := testOnt()
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, ont)
		re := equivalenceExprs[rng.Intn(len(equivalenceExprs))]
		subjects := []string{"?X", "n0", "n1"}
		objects := []string{"?Y", "n2", "?X"}
		c := conj(subjects[rng.Intn(3)], re, objects[rng.Intn(3)], automaton.Exact)
		opts := Options{BatchSize: randBatchSize(rng, 1, 3, 100)}
		checkEquivalence(t, g, ont, c, opts, false, 0)
	}
}

func TestQuickApproxAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	ont := testOnt()
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, ont)
		re := equivalenceExprs[rng.Intn(len(equivalenceExprs))]
		subjects := []string{"?X", "n0"}
		objects := []string{"?Y", "n2"}
		c := conj(subjects[rng.Intn(2)], re, objects[rng.Intn(2)], automaton.Approx)
		opts := Options{BatchSize: []int{1, 7, 100}[rng.Intn(3)]}
		checkEquivalence(t, g, ont, c, opts, false, 0)
	}
}

func TestQuickRelaxAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	ont := testOnt()
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, ont)
		res := []string{"p", "q", "p.q", "type-", "p|q", "q.type-"}
		re := res[rng.Intn(len(res))]
		subjects := []string{"?X", "C1", "n0"}
		objects := []string{"?Y", "C2", "n1"}
		c := conj(subjects[rng.Intn(3)], re, objects[rng.Intn(3)], automaton.Relax)
		opts := Options{EnableRule2: rng.Intn(2) == 0}
		if opts.EnableRule2 {
			ont.SetDomain("p", "C1")
			ont.SetRange("q", "C2")
		}
		checkEquivalence(t, g, ont, c, opts, false, 0)
	}
}

// manyLabelGraph draws a graph over 16–40 edge labels, each carried by at
// least one edge, with about as many nodes as edges: most nodes have one or two
// non-empty (label, direction) segments out of up to 80, so a wildcard's
// successors sit between long runs of empty ones. Labels are interned in a
// random order, p and q (the ontology's subproperties of link) among them.
func manyLabelGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	labels := []string{"p", "q", "r"}
	for l := len(labels); l < 16+rng.Intn(25); l++ {
		labels = append(labels, fmt.Sprintf("l%d", l))
	}
	nNodes := len(labels) + rng.Intn(10)
	node := func() string { return fmt.Sprintf("n%d", rng.Intn(nNodes)) }
	for i := 0; i < nNodes; i++ {
		b.AddNode(fmt.Sprintf("n%d", i))
	}
	for _, l := range rng.Perm(len(labels)) {
		_ = b.AddTriple(node(), labels[l], node())
	}
	for i := rng.Intn(len(labels) / 4); i > 0; i-- {
		_ = b.AddTriple(node(), labels[rng.Intn(len(labels))], node())
	}
	for i := 0; i < nNodes; i++ {
		if rng.Intn(4) == 0 {
			_ = b.AddTriple(fmt.Sprintf("n%d", i), "type", []string{"C1", "C2"}[rng.Intn(2)])
		}
	}
	b.AddNode("C0")
	return b.Freeze()
}

// TestManyLabelApproxAgainstReference runs APPROX and FLEX conjuncts on
// manyLabelGraph graphs, where a continuation's cursor crosses many empty
// label segments, against the reference: the fresh evaluator's answer set
// must match refConjunct, and a pooled execution — sharing one EvalPool with
// every trial, twice per trial — must emit the fresh ranked sequence exactly.
func TestManyLabelApproxAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ont := testOnt()
	pool := NewEvalPool(4)
	exprs := append([]string{"_-", "link", "p.link-", "_.q"}, equivalenceExprs...)
	for trial := 0; trial < 40; trial++ {
		g := manyLabelGraph(rng)
		mode := []automaton.Mode{automaton.Approx, automaton.Flex}[rng.Intn(2)]
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], exprs[rng.Intn(len(exprs))], []string{"?Y", "n2", "C0"}[rng.Intn(3)], mode)
		opts := Options{BatchSize: randBatchSize(rng, 1, 7, 100), DistanceAware: rng.Intn(2) == 0, MaxPsi: 1 << 20}
		checkEquivalence(t, g, ont, c, opts, false, 0)
		if !c.Subject.IsVar && !c.Object.IsVar {
			continue // a query needs a head variable
		}

		p, err := PrepareQuery(g, ont, &Query{Head: headFor(c), Conjuncts: []Conjunct{c}}, opts)
		if err != nil {
			t.Fatalf("trial %d: PrepareQuery: %v", trial, err)
		}
		fresh, err := p.Exec(context.Background(), ExecOptions{})
		if err != nil {
			t.Fatalf("trial %d: fresh Exec: %v", trial, err)
		}
		want := drainExec(t, fresh, 0)
		for rep := 0; rep < 2; rep++ {
			ex, err := p.Exec(context.Background(), ExecOptions{Pool: pool})
			if err != nil {
				t.Fatalf("trial %d rep %d: pooled Exec: %v", trial, rep, err)
			}
			got := drainExec(t, ex, 0)
			if !slices.EqualFunc(got, want, sameQueryAnswer) {
				t.Fatalf("trial %d rep %d (%s opts=%+v, %d labels): pooled emitted %v, fresh %v",
					trial, rep, c, opts, g.NumLabels(), got, want)
			}
		}
	}
	if s := pool.Stats(); s.Reuses == 0 || s.Puts != s.Gets {
		t.Fatalf("pool not recycled cleanly: %+v", s)
	}
}

func TestQuickDistanceAwareMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	ont := testOnt()
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, ont)
		re := []string{"p", "p.q", "p|q", "p.q-"}[rng.Intn(4)]
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], re, "?Y", automaton.Approx)
		maxPsi := int32(3)
		opts := Options{DistanceAware: true, MaxPsi: maxPsi}
		checkEquivalence(t, g, ont, c, opts, true, maxPsi)
	}
}

func TestQuickDisjunctionMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ont := testOnt()
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, ont)
		re := []string{"p|q", "p.q|r", "(p.q)|(q.r)|p-"}[rng.Intn(3)]
		c := conj([]string{"?X", "n0"}[rng.Intn(2)], re, "?Y", automaton.Approx)
		maxPsi := int32(3)
		opts := Options{Disjunction: true, MaxPsi: maxPsi}
		checkEquivalence(t, g, ont, c, opts, true, maxPsi)
	}
}
