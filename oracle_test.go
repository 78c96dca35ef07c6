package omega

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// An independent semantics oracle for EXACT and APPROX queries. It shares
// no code with the engine: it generates its own expressions, builds its own
// Thompson ε-NFA from them and runs Dijkstra over the explicit product of
// graph nodes and NFA states, where the paper's edit operations are product
// moves — an insertion follows any edge, in either direction, and stays in
// its state; a deletion advances the state without an edge; a substitution
// follows any edge, in either direction, and advances. The engine sees the
// same graph and the expression as query text, through the public API only.

// oexpr is an expression node of the oracle: a label (or the wildcard "_"),
// possibly inverse, or an operator over kids.
type oexpr struct {
	op    byte // 'l' label, '.' concat, '|' alt, '*', '+', '?'
	label string
	inv   bool
	kids  []*oexpr
}

// String renders e in the engine's query syntax.
func (e *oexpr) String() string {
	switch e.op {
	case 'l':
		if e.inv {
			return e.label + "-"
		}
		return e.label
	case '.', '|':
		parts := make([]string, len(e.kids))
		for i, k := range e.kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, string(e.op)) + ")"
	}
	return "(" + e.kids[0].String() + ")" + string(e.op)
}

// genQuery returns a random concatenation of two to four expressions of
// genExpr at depth 2: the paths it asks for are long enough for edit
// operations to mix along them.
func genQuery(rng *rand.Rand) *oexpr {
	e := &oexpr{op: '.'}
	for k := 2 + rng.Intn(3); k > 0; k-- {
		e.kids = append(e.kids, genExpr(rng, 2))
	}
	return e
}

// genExpr returns a random expression over labels a, b, c and the wildcard,
// at most depth operators deep.
func genExpr(rng *rand.Rand, depth int) *oexpr {
	if depth == 0 || rng.Intn(3) == 0 {
		label := []string{"a", "b", "c", "_"}[rng.Intn(4)]
		return &oexpr{op: 'l', label: label, inv: rng.Intn(3) == 0}
	}
	switch op := ".|*+?"[rng.Intn(5)]; op {
	case '.', '|':
		return &oexpr{op: op, kids: []*oexpr{genExpr(rng, depth-1), genExpr(rng, depth-1)}}
	default:
		return &oexpr{op: op, kids: []*oexpr{genExpr(rng, depth-1)}}
	}
}

// otrans is a Thompson NFA transition; eps marks an ε-transition.
type otrans struct {
	from, to int
	eps      bool
	label    string // "_" for the wildcard
	inv      bool
}

// onfa is a Thompson ε-NFA with one start and one final state.
type onfa struct {
	states       int
	start, final int
	trans        []otrans
}

func (n *onfa) state() int { n.states++; return n.states - 1 }

// build adds e between fresh states and returns them.
func (n *onfa) build(e *oexpr) (int, int) {
	s, f := n.state(), n.state()
	eps := func(a, b int) { n.trans = append(n.trans, otrans{from: a, to: b, eps: true}) }
	switch e.op {
	case 'l':
		n.trans = append(n.trans, otrans{from: s, to: f, label: e.label, inv: e.inv})
	case '.':
		prev := s
		for _, k := range e.kids {
			ks, kf := n.build(k)
			eps(prev, ks)
			prev = kf
		}
		eps(prev, f)
	case '|':
		for _, k := range e.kids {
			ks, kf := n.build(k)
			eps(s, ks)
			eps(kf, f)
		}
	case '*', '+', '?':
		ks, kf := n.build(e.kids[0])
		eps(s, ks)
		eps(kf, f)
		if e.op != '+' {
			eps(s, f)
		}
		if e.op != '?' {
			eps(kf, ks)
		}
	}
	return s, f
}

func thompson(e *oexpr) *onfa {
	n := &onfa{}
	n.start, n.final = n.build(e)
	return n
}

// ograph is a small labelled graph as an edge list.
type ograph struct {
	nodes int
	edges []oedge
}

type oedge struct {
	src, dst int
	label    string
}

// genGraph returns a random graph of at most 12 nodes and 30 edges over
// labels a, b, c.
func genGraph(rng *rand.Rand) ograph {
	g := ograph{nodes: 1 + rng.Intn(12)}
	for i := rng.Intn(31); i > 0; i-- {
		g.edges = append(g.edges, oedge{rng.Intn(g.nodes), rng.Intn(g.nodes), []string{"a", "b", "c"}[rng.Intn(3)]})
	}
	return g
}

func oname(i int) string { return fmt.Sprintf("n%d", i) }

// engineGraph builds g for the engine, every node named by oname.
func engineGraph(t testing.TB, g ograph) *Graph {
	b := NewGraphBuilder()
	for i := 0; i < g.nodes; i++ {
		b.AddNode(oname(i))
	}
	for _, e := range g.edges {
		src, _ := b.Node(oname(e.src))
		dst, _ := b.Node(oname(e.dst))
		if err := b.AddEdge(src, e.label, dst); err != nil {
			t.Fatal(err)
		}
	}
	return b.Freeze()
}

// ocosts are the edit costs; approx false means EXACT.
type ocosts struct {
	approx           bool
	ins, del, substi int
}

// editCosts returns edit costs of ins, del and sub modulo 4, or unit costs
// when all three are zero: the engine reads an all-zero Options.Edit as its
// unit default.
func editCosts(ins, del, sub int) ocosts {
	c := ocosts{ins: ins % 4, del: del % 4, substi: sub % 4}
	if c.ins == 0 && c.del == 0 && c.substi == 0 {
		return ocosts{ins: 1, del: 1, substi: 1}
	}
	return c
}

// oitem is a Dijkstra queue entry over (node, state).
type oitem struct{ d, n, s int }

type oheap []oitem

func (h oheap) Len() int            { return len(h) }
func (h oheap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h oheap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oheap) Push(x interface{}) { *h = append(*h, x.(oitem)) }
func (h *oheap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// distances returns, for every node y reachable from src, the least cost of
// a path from src to y whose label word is within that edit cost of a word
// the NFA accepts (the exact match cost when c.approx is false).
func (n *onfa) distances(g ograph, src int, c ocosts) map[int]int {
	dist := make([]int, g.nodes*n.states)
	for i := range dist {
		dist[i] = -1
	}
	h := &oheap{{0, src, n.start}}
	relax := func(d, m, s int) {
		if old := dist[m*n.states+s]; old < 0 || d < old {
			dist[m*n.states+s] = d
			heap.Push(h, oitem{d, m, s})
		}
	}
	dist[src*n.states+n.start] = 0
	for h.Len() > 0 {
		it := heap.Pop(h).(oitem)
		if it.d != dist[it.n*n.states+it.s] {
			continue
		}
		if c.approx {
			for _, e := range g.edges { // insertion
				if e.src == it.n {
					relax(it.d+c.ins, e.dst, it.s)
				}
				if e.dst == it.n {
					relax(it.d+c.ins, e.src, it.s)
				}
			}
		}
		for _, tr := range n.trans {
			if tr.from != it.s {
				continue
			}
			if tr.eps {
				relax(it.d, it.n, tr.to)
				continue
			}
			for _, e := range g.edges {
				if tr.label != "_" && tr.label != e.label {
					continue
				}
				if !tr.inv && e.src == it.n {
					relax(it.d, e.dst, tr.to)
				}
				if tr.inv && e.dst == it.n {
					relax(it.d, e.src, tr.to)
				}
			}
			if c.approx {
				relax(it.d+c.del, it.n, tr.to) // deletion
				for _, e := range g.edges {    // substitution
					if e.src == it.n {
						relax(it.d+c.substi, e.dst, tr.to)
					}
					if e.dst == it.n {
						relax(it.d+c.substi, e.src, tr.to)
					}
				}
			}
		}
	}
	out := map[int]int{}
	for y := 0; y < g.nodes; y++ {
		if d := dist[y*n.states+n.final]; d >= 0 {
			out[y] = d
		}
	}
	return out
}

// oracleOptionSets are the driver configurations the differential runs. All
// but the last pin the ψ cap far above any distance these graphs reach, so
// no answer is cut. The last leaves MaxPsi unset: its default, 16·φ, binds on
// the longer edit paths, and the oracle's pairs are cut where Explain puts
// it (see cutAtCap).
var oracleOptionSets = []struct {
	name       string
	opts       Options
	defaultCap bool
}{
	{"default", Options{}, false},
	{"distance-aware", Options{DistanceAware: true}, false},
	{"disjunction", Options{Disjunction: true}, false},
	{"disjunction+distance-aware", Options{Disjunction: true, DistanceAware: true}, false},
	{"batch-1", Options{BatchSize: 1}, false},
	{"rare-side", Options{RareSide: true}, false},
	{"rare-side+distance-aware", Options{RareSide: true, DistanceAware: true}, false},
	{"distance-aware+default-cap", Options{DistanceAware: true}, true},
}

// psiCapRe reads the ψ grid step and cap off the strategy line Explain
// renders for a distance-aware conjunct.
var psiCapRe = regexp.MustCompile(`ψ step (\d+), max ψ=(\d+)`)

// cutAtCap returns the pairs of want that the ψ-phase driver reaches when pq,
// a single conjunct, runs in mode: those at or below the last ψ it steps to,
// the first grid point at or above the cap Explain prints.
func cutAtCap(t testing.TB, where string, pq *PreparedQuery, mode Mode, want map[[2]int]int) map[[2]int]int {
	t.Helper()
	plan, err := pq.Explain(ExecOptions{Mode: ModeOverride(mode)})
	if err != nil {
		t.Fatalf("%s: Explain: %v", where, err)
	}
	m := psiCapRe.FindStringSubmatch(plan)
	if m == nil {
		t.Fatalf("%s: Explain names no ψ cap:\n%s", where, plan)
	}
	step, _ := strconv.Atoi(m[1])
	maxPsi, _ := strconv.Atoi(m[2])
	last := (maxPsi + step - 1) / step * step
	cut := map[[2]int]int{}
	for pair, d := range want {
		if d <= last {
			cut[pair] = d
		}
	}
	return cut
}

// oracleCase is one query of a trial and the oracle's answer to it: every
// row's pair (see oracleRun) at its distance. every runs it under every
// option set, otherwise it runs under the trial's pick alone; varVar marks a
// query with a (?X, R, ?Y) conjunct, the only kind RareSide changes, and
// join a two-conjunct query, which the default-cap set skips: its cap
// applies per conjunct, and cutAtCap reads one.
type oracleCase struct {
	text                string
	base                [2]int
	want                map[[2]int]int
	every, varVar, join bool
}

// oracleTrial runs one generated graph and expression through every mode,
// option set and pooling choice, exhaustively and under limits, and fails on
// the first disagreement with the oracle. The queries are Case 1 (constant
// subject), Case 2 (constant object), Case 3 (both ends variable), and the
// join of a Case 1 conjunct with a Case 3 one over a second expression, once
// with both variables in the head (the sum of the two oracle distances) and
// once projected on the last (the least such sum over the shared variable).
// Cases 1 and 3 run under every option set that can change them, the others
// under one set the trial picks, which keeps a trial's executions bounded. It
// returns the number of executions it checked.
func oracleTrial(t testing.TB, gseed, eseed int64, c ocosts, pool *EvalPool) int {
	t.Helper()
	g := genGraph(rand.New(rand.NewSource(gseed)))
	erng := rand.New(rand.NewSource(eseed))
	expr := genQuery(erng)
	src := erng.Intn(g.nodes)
	dst := erng.Intn(g.nodes)
	expr2 := genExpr(erng, 2)
	pick := erng.Intn(len(oracleOptionSets))
	eg := engineGraph(t, g)
	nfa, nfa2 := thompson(expr), thompson(expr2)
	runs := 0
	for _, approx := range []bool{false, true} {
		c.approx = approx
		mode, kw := Exact, ""
		if approx {
			mode, kw = Approx, "APPROX "
		}
		from := make([]map[int]int, g.nodes)  // from[x][y]: expr's distance from x to y
		from2 := make([]map[int]int, g.nodes) // the same for expr2
		for x := range g.nodes {
			from[x], from2[x] = nfa.distances(g, x, c), nfa2.distances(g, x, c)
		}
		want1, want2, want3 := map[[2]int]int{}, map[[2]int]int{}, map[[2]int]int{}
		for x := range g.nodes {
			for y, d := range from[x] {
				want3[[2]int{x, y}] = d
				if x == src {
					want1[[2]int{x, y}] = d
				}
				if y == dst {
					want2[[2]int{x, y}] = d
				}
			}
		}
		join, proj := map[[2]int]int{}, map[[2]int]int{}
		for x, d1 := range from[src] {
			for y, d2 := range from2[x] {
				join[[2]int{x, y}] = d1 + d2
				if old, ok := proj[[2]int{0, y}]; !ok || d1+d2 < old {
					proj[[2]int{0, y}] = d1 + d2
				}
			}
		}
		body := fmt.Sprintf("%s(%s, %s, ?X), %s(?X, %s, ?Y)", kw, oname(src), expr, kw, expr2)
		for _, cs := range []oracleCase{
			{text: fmt.Sprintf("(?Y) <- %s(%s, %s, ?Y)", kw, oname(src), expr), base: [2]int{src, 0}, want: want1, every: true},
			{text: fmt.Sprintf("(?X) <- %s(?X, %s, %s)", kw, expr, oname(dst)), base: [2]int{0, dst}, want: want2},
			{text: fmt.Sprintf("(?X, ?Y) <- %s(?X, %s, ?Y)", kw, expr), want: want3, every: true, varVar: true},
			{text: "(?X, ?Y) <- " + body, want: join, varVar: true, join: true},
			{text: "(?Y) <- " + body, want: proj, varVar: true, join: true},
		} {
			for i, os := range oracleOptionSets {
				switch {
				case !cs.every && i != pick,
					os.opts.RareSide && !cs.varVar,
					os.defaultCap && (!approx || cs.join): // EXACT runs no ψ-phase driver: the set is "distance-aware" again
					continue
				}
				opts := os.opts
				opts.Edit = EditCosts{Insert: int32(c.ins), Delete: int32(c.del), Substitute: int32(c.substi)}
				if !os.defaultCap {
					opts.MaxPsi = 1 << 20
				}
				for _, p := range []*EvalPool{nil, pool} {
					where := fmt.Sprintf("graph seed %d, expression seed %d, costs %d/%d/%d, %s, %q, %s, pooled %v",
						gseed, eseed, c.ins, c.del, c.substi, mode, cs.text, os.name, p != nil)
					pq, err := NewEngine(eg, NewOntology()).WithOptions(opts).PrepareText(cs.text)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					want := cs.want
					if os.defaultCap {
						want = cutAtCap(t, where, pq, mode, want)
					}
					all := oracleRun(t, where, pq, mode, p, cs.base, 0, want)
					runs++
					if len(all) != len(want) {
						t.Fatalf("%s: engine emitted %d pairs, oracle has %d\nengine: %v\noracle: %v", where, len(all), len(want), all, want)
					}
					for _, k := range []int{1, 2, len(want) / 2, len(want) - 1} {
						if k >= 1 && k < len(want) {
							oracleRun(t, where, pq, mode, p, cs.base, k, want)
							runs++
						}
					}
				}
			}
		}
	}
	return runs
}

// oracleRun executes pq with the given limit (0 = exhaustive) and checks the
// emission against want: every pair at its oracle distance, emitted once, in
// non-decreasing distance, and the distances those of the limit smallest
// oracle entries. A row's pair is base with ?X's node in its first place and
// ?Y's in its second, for the variables the row binds.
func oracleRun(t testing.TB, where string, pq *PreparedQuery, mode Mode, pool *EvalPool, base [2]int, limit int, want map[[2]int]int) map[[2]int]int {
	t.Helper()
	rows, err := pq.Exec(context.Background(), ExecOptions{Limit: limit, Mode: ModeOverride(mode), Pool: pool})
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	defer rows.Close()
	got := map[[2]int]int{}
	var dists []int
	for {
		r, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("%s limit %d: %v", where, limit, err)
		}
		if !ok {
			break
		}
		pair := base
		for i, v := range r.Vars {
			var id int
			fmt.Sscanf(r.Labels[i], "n%d", &id)
			if v == "X" {
				pair[0] = id
			} else {
				pair[1] = id
			}
		}
		if n := len(dists); n > 0 && r.Dist < dists[n-1] {
			t.Fatalf("%s limit %d: %v at distance %d after distance %d", where, limit, pair, r.Dist, dists[n-1])
		}
		d, ok := want[pair]
		if !ok || d != r.Dist {
			t.Fatalf("%s limit %d: engine emitted %v at distance %d, oracle distance %d (reachable %v)", where, limit, pair, r.Dist, d, ok)
		}
		if _, dup := got[pair]; dup {
			t.Fatalf("%s limit %d: %v emitted twice", where, limit, pair)
		}
		got[pair] = r.Dist
		dists = append(dists, r.Dist)
	}
	if limit > 0 {
		all := make([]int, 0, len(want))
		for _, d := range want {
			all = append(all, d)
		}
		sort.Ints(all)
		if len(dists) != min(limit, len(all)) {
			t.Fatalf("%s limit %d: engine emitted %d answers, oracle has %d", where, limit, len(dists), len(all))
		}
		for i, d := range dists {
			if d != all[i] {
				t.Fatalf("%s limit %d: answer %d at distance %d, the oracle's %d-th smallest is %d", where, limit, i, d, i+1, all[i])
			}
		}
	}
	return got
}

// TestOracleDifferential holds the engine to the oracle on fixed-seed
// generated graphs and expressions — single conjuncts of Cases 1–3, and
// two-conjunct joins with a full and a projected head — with unit costs and
// with random costs of 0–3 per operation, never all zero.
func TestOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20150327))
	pool := NewEvalPool(0)
	trials := 120
	if testing.Short() {
		trials = 30
	}
	runs := 0
	for i := 0; i < trials; i++ {
		c := ocosts{ins: 1, del: 1, substi: 1}
		if i%2 == 1 {
			c = editCosts(rng.Intn(4), rng.Intn(4), rng.Intn(4))
		}
		runs += oracleTrial(t, rng.Int63(), rng.Int63(), c, pool)
	}
	t.Logf("%d executions agree with the oracle", runs)
}

// FuzzOracle explores graph seeds, expression seeds and edit costs (0–3
// each, unit when all three are zero) beyond the fixed-seed differential.
func FuzzOracle(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), int64(9), uint8(2), uint8(1), uint8(1))
	f.Add(int64(42), int64(43), uint8(1), uint8(2), uint8(0))
	pool := NewEvalPool(0)
	f.Fuzz(func(t *testing.T, gseed, eseed int64, ins, del, sub uint8) {
		oracleTrial(t, gseed, eseed, editCosts(int(ins), int(del), int(sub)), pool)
	})
}
