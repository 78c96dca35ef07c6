package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"omega/internal/bitset"
)

func buildSample(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
	for _, tr := range [][3]string{
		{"a", "knows", "b"},
		{"a", "knows", "c"},
		{"b", "knows", "c"},
		{"c", "likes", "a"},
		{"a", "type", "Person"},
		{"b", "type", "Person"},
		{"c", "type", "Robot"},
	} {
		if err := b.AddTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatalf("AddTriple(%v): %v", tr, err)
		}
	}
	return b.Freeze()
}

func id(t *testing.T, g *Graph, label string) NodeID {
	t.Helper()
	n, ok := g.LookupNode(label)
	if !ok {
		t.Fatalf("LookupNode(%q) failed", label)
	}
	return n
}

func labels(g *Graph, ns []NodeID) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = g.NodeLabel(n)
	}
	sort.Strings(out)
	return out
}

func TestBuilderBasics(t *testing.T) {
	g := buildSample(t)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 7 {
		t.Errorf("NumEdges = %d, want 7", g.NumEdges())
	}
	if g.NumLabels() != 3 {
		t.Errorf("NumLabels = %d, want 3", g.NumLabels())
	}
	if g.TypeID() == InvalidLabel {
		t.Error("TypeID = InvalidLabel, want valid")
	}
	if name := g.LabelName(g.TypeID()); name != "type" {
		t.Errorf("LabelName(TypeID) = %q, want %q", name, "type")
	}
}

func TestDuplicateEdgesIgnored(t *testing.T) {
	b := NewBuilder()
	x, y := b.AddNode("x"), b.AddNode("y")
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(x, "e", y); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after duplicate inserts", g.NumEdges())
	}
}

func TestDuplicateNodesShareID(t *testing.T) {
	b := NewBuilder()
	n1 := b.AddNode("x")
	n2 := b.AddNode("x")
	if n1 != n2 {
		t.Fatalf("AddNode twice gave %d and %d", n1, n2)
	}
	if b.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", b.NumNodes())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	b := NewBuilder()
	x := b.AddNode("x")
	if err := b.AddEdge(x, "e", NodeID(99)); err == nil {
		t.Error("AddEdge with bad target: want error")
	}
	if err := b.AddEdge(NodeID(-1), "e", x); err == nil {
		t.Error("AddEdge with bad source: want error")
	}
	if err := b.AddEdge(x, "", x); err == nil {
		t.Error("AddEdge with empty label: want error")
	}
}

func TestNeighborsDirections(t *testing.T) {
	g := buildSample(t)
	knows, _ := g.Label("knows")
	a := id(t, g, "a")
	c := id(t, g, "c")

	got := labels(g, g.Neighbors(a, knows, Out))
	want := []string{"b", "c"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("a -knows-> = %v, want %v", got, want)
	}
	if ns := g.Neighbors(a, knows, In); len(ns) != 0 {
		t.Errorf("a <-knows- = %v, want empty", labels(g, ns))
	}
	got = labels(g, g.Neighbors(c, knows, In))
	want = []string{"a", "b"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("c <-knows- = %v, want %v", got, want)
	}
	// Both = out ∪ in (with multiplicity).
	likes, _ := g.Label("likes")
	both := g.Neighbors(c, likes, Both)
	if len(both) != 1 || g.NodeLabel(both[0]) != "a" {
		t.Errorf("c -likes- both = %v, want [a]", labels(g, both))
	}
}

func TestNeighborsUnknownLabel(t *testing.T) {
	g := buildSample(t)
	if ns := g.Neighbors(0, InvalidLabel, Out); ns != nil {
		t.Errorf("Neighbors with InvalidLabel = %v, want nil", ns)
	}
	if ns := g.Neighbors(0, LabelID(99), Both); ns != nil {
		t.Errorf("Neighbors with out-of-range label = %v, want nil", ns)
	}
}

func TestHeadsTails(t *testing.T) {
	g := buildSample(t)
	knows, _ := g.Label("knows")
	tails := labels(g, g.Tails(knows))
	if len(tails) != 2 || tails[0] != "a" || tails[1] != "b" {
		t.Errorf("Tails(knows) = %v, want [a b]", tails)
	}
	heads := labels(g, g.Heads(knows))
	if len(heads) != 2 || heads[0] != "b" || heads[1] != "c" {
		t.Errorf("Heads(knows) = %v, want [b c]", heads)
	}
	th := labels(g, g.TailsAndHeads(knows))
	if len(th) != 3 {
		t.Errorf("TailsAndHeads(knows) = %v, want 3 distinct", th)
	}
}

func TestDegreeAndHasEdge(t *testing.T) {
	g := buildSample(t)
	knows, _ := g.Label("knows")
	a, b, c := id(t, g, "a"), id(t, g, "b"), id(t, g, "c")
	if d := g.Degree(a, knows, Out); d != 2 {
		t.Errorf("Degree(a, knows, Out) = %d, want 2", d)
	}
	if d := g.Degree(c, knows, Both); d != 2 {
		t.Errorf("Degree(c, knows, Both) = %d, want 2", d)
	}
	if !g.HasEdge(a, knows, b) {
		t.Error("HasEdge(a, knows, b) = false")
	}
	if g.HasEdge(b, knows, a) {
		t.Error("HasEdge(b, knows, a) = true")
	}
	if g.HasEdge(c, knows, c) {
		t.Error("HasEdge(c, knows, c) = true")
	}
}

func TestEdgeCount(t *testing.T) {
	g := buildSample(t)
	knows, _ := g.Label("knows")
	if n := g.EdgeCount(knows); n != 3 {
		t.Errorf("EdgeCount(knows) = %d, want 3", n)
	}
	if n := g.EdgeCount(InvalidLabel); n != 0 {
		t.Errorf("EdgeCount(InvalidLabel) = %d, want 0", n)
	}
}

func TestLookupMisses(t *testing.T) {
	g := buildSample(t)
	if n, ok := g.LookupNode("zzz"); ok || n != InvalidNode {
		t.Errorf("LookupNode(zzz) = %d,%v; want InvalidNode,false", n, ok)
	}
	if l, ok := g.Label("zzz"); ok || l != InvalidLabel {
		t.Errorf("Label(zzz) = %d,%v; want InvalidLabel,false", l, ok)
	}
	if s := g.NodeLabel(InvalidNode); s != "" {
		t.Errorf("NodeLabel(InvalidNode) = %q, want empty", s)
	}
}

// Property test: a frozen CSR graph answers Neighbors/Heads/Tails identically
// to a naive map-of-slices adjacency model, over random graphs.
func TestRandomGraphAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	labelsIn := []string{"p", "q", "r", "type"}
	for trial := 0; trial < 25; trial++ {
		nNodes := 2 + rng.Intn(30)
		nEdges := rng.Intn(120)
		b := NewBuilder()
		names := make([]string, nNodes)
		for i := range names {
			names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
			b.AddNode(names[i])
		}
		type key struct {
			src, dst int
			label    string
		}
		model := map[key]bool{}
		for e := 0; e < nEdges; e++ {
			k := key{rng.Intn(nNodes), rng.Intn(nNodes), labelsIn[rng.Intn(len(labelsIn))]}
			model[k] = true
			src, _ := b.Node(names[k.src])
			dst, _ := b.Node(names[k.dst])
			if err := b.AddEdge(src, k.label, dst); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Freeze()
		if g.NumEdges() != len(model) {
			t.Fatalf("trial %d: NumEdges = %d, want %d", trial, g.NumEdges(), len(model))
		}
		checkIncidence(t, g)
		for _, lname := range labelsIn {
			l, ok := g.Label(lname)
			if !ok {
				continue
			}
			for n := 0; n < nNodes; n++ {
				var wantOut, wantIn []string
				for k := range model {
					if k.label != lname {
						continue
					}
					if k.src == n {
						wantOut = append(wantOut, names[k.dst])
					}
					if k.dst == n {
						wantIn = append(wantIn, names[k.src])
					}
				}
				sort.Strings(wantOut)
				sort.Strings(wantIn)
				nid, _ := g.LookupNode(names[n])
				gotOut := labels(g, g.Neighbors(nid, l, Out))
				gotIn := labels(g, g.Neighbors(nid, l, In))
				if !eqStrings(gotOut, wantOut) {
					t.Fatalf("trial %d: Neighbors(%s,%s,Out) = %v, want %v", trial, names[n], lname, gotOut, wantOut)
				}
				if !eqStrings(gotIn, wantIn) {
					t.Fatalf("trial %d: Neighbors(%s,%s,In) = %v, want %v", trial, names[n], lname, gotIn, wantIn)
				}
				if got, want := g.Degree(nid, l, Both), len(wantOut)+len(wantIn); got != want {
					t.Fatalf("trial %d: Degree(%s,%s,Both) = %d, want %d", trial, names[n], lname, got, want)
				}
			}
		}
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := buildSample(t)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || g2.NumLabels() != g.NumLabels() {
		t.Fatalf("round trip sizes: nodes %d/%d edges %d/%d labels %d/%d",
			g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges(), g2.NumLabels(), g.NumLabels())
	}
	// Every edge survives with identical endpoints.
	for _, lname := range g.Labels() {
		l1, _ := g.Label(lname)
		l2, ok := g2.Label(lname)
		if !ok {
			t.Fatalf("label %q missing after round trip", lname)
		}
		for _, src := range g.Tails(l1) {
			src2, ok := g2.LookupNode(g.NodeLabel(src))
			if !ok {
				t.Fatalf("node %q missing after round trip", g.NodeLabel(src))
			}
			for _, dst := range g.Neighbors(src, l1, Out) {
				dst2, _ := g2.LookupNode(g.NodeLabel(dst))
				if !g2.HasEdge(src2, l2, dst2) {
					t.Fatalf("edge %s-%s->%s missing after round trip", g.NodeLabel(src), lname, g.NodeLabel(dst))
				}
			}
		}
	}
}

// FuzzGraph builds a graph from a fuzzed edge list and checks every node: its
// incidence list is its per-label lists laid end to end (Out then In per
// label), every per-label list is sorted and unique and holds exactly the
// edges added, and a Save→Load round trip keeps Neighbors, Incident, Tails and
// Heads. The first two bytes pick the node count (1–32) and the label count
// (1–40, label 0 being type); each further byte triple is one edge (src,
// label, dst) reduced modulo those counts, duplicates and self-loops included.
// Bytes past maxFuzzEdges triples are ignored, which keeps each run (and the
// minimisation of a long input) cheap.
func FuzzGraph(f *testing.F) {
	const maxFuzzEdges = 64
	f.Add([]byte{4, 3, 0, 0, 1, 0, 1, 2, 1, 2, 2, 3, 0, 0, 2, 0, 3})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{31, 39, 5, 39, 7, 7, 17, 31, 31, 0, 0, 12, 20, 12, 5, 38, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nNodes, nLabels := 1+int(data[0])%32, 1+int(data[1])%40
		b := NewBuilder()
		for i := 0; i < nNodes; i++ {
			b.AddNode(fmt.Sprintf("n%d", i))
		}
		type edge struct {
			src, dst NodeID
			label    string
		}
		model := map[edge]bool{}
		for i := 2; i+2 < min(len(data), 2+3*maxFuzzEdges); i += 3 {
			e := edge{NodeID(int(data[i]) % nNodes), NodeID(int(data[i+2]) % nNodes), TypeLabel}
			if l := int(data[i+1]) % nLabels; l > 0 {
				e.label = fmt.Sprintf("l%d", l)
			}
			model[e] = true
			if err := b.AddEdge(e.src, e.label, e.dst); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Freeze()
		checkIncidence(t, g)
		if g.NumEdges() != len(model) {
			t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(model))
		}
		for l := 0; l < g.NumLabels(); l++ {
			for n := 0; n < nNodes; n++ {
				for _, m := range g.Neighbors(NodeID(n), LabelID(l), Out) {
					if !model[edge{NodeID(n), m, g.LabelName(LabelID(l))}] {
						t.Fatalf("edge %d -%s-> %d was never added", n, g.LabelName(LabelID(l)), m)
					}
				}
			}
		}

		var buf bytes.Buffer
		if err := Save(&buf, g); err != nil {
			t.Fatalf("Save: %v", err)
		}
		g2, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		checkIncidence(t, g2)
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || !slices.Equal(g2.Labels(), g.Labels()) {
			t.Fatalf("round trip: %d nodes, %d edges, labels %v; want %d, %d, %v",
				g2.NumNodes(), g2.NumEdges(), g2.Labels(), g.NumNodes(), g.NumEdges(), g.Labels())
		}
		for l := LabelID(0); int(l) < g.NumLabels(); l++ {
			if !slices.Equal(g2.Tails(l), g.Tails(l)) || !slices.Equal(g2.Heads(l), g.Heads(l)) {
				t.Fatalf("round trip: label %s: Tails %v Heads %v, want %v %v", g.LabelName(l), g2.Tails(l), g2.Heads(l), g.Tails(l), g.Heads(l))
			}
			for n := NodeID(0); int(n) < nNodes; n++ {
				for _, dir := range []Direction{Out, In} {
					if got, want := g2.Neighbors(n, l, dir), g.Neighbors(n, l, dir); !slices.Equal(got, want) {
						t.Fatalf("round trip: Neighbors(%d, %s, %s) = %v, want %v", n, g.LabelName(l), dir, got, want)
					}
				}
			}
		}
		for n := NodeID(0); int(n) < nNodes; n++ {
			if got, want := g2.Incident(n), g.Incident(n); !slices.Equal(got, want) {
				t.Fatalf("round trip: Incident(%d) = %v, want %v", n, got, want)
			}
		}
	})
}

// checkIncidence requires every node's Incident list to equal its per-label
// Neighbors lists concatenated, Out then In per label, each of those lists
// sorted and unique, and the lists to total two entries per edge.
func checkIncidence(t *testing.T, g *Graph) {
	t.Helper()
	total := 0
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		var want []NodeID
		for l := LabelID(0); int(l) < g.NumLabels(); l++ {
			for _, dir := range []Direction{Out, In} {
				ns := g.Neighbors(n, l, dir)
				for i := 1; i < len(ns); i++ {
					if ns[i-1] >= ns[i] {
						t.Fatalf("Neighbors(%d, %s, %s) = %v: not sorted and unique", n, g.LabelName(l), dir, ns)
					}
				}
				want = append(want, ns...)
			}
		}
		inc := g.Incident(n)
		if !slices.Equal(inc, want) {
			t.Fatalf("Incident(%d) = %v, want the per-label lists %v", n, inc, want)
		}
		total += len(inc)
	}
	if total != 2*g.NumEdges() {
		t.Fatalf("incidence lists hold %d entries, want 2 × %d edges", total, g.NumEdges())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a graph\n",
		"omega-graph v1\nX nonsense\n",
		"omega-graph v1\nE 0 0 0\n",           // edge refers to missing label/node
		"omega-graph v1\nL p\nN a\nE 0 5 0\n", // label id out of range
		"omega-graph v1\nL p\nN a\nE 0 zero 0\n",
		"omega-graph v1\nL p\nN a\nE 0 0\n",
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: Load(%q) succeeded, want error", i, c)
		}
	}
}

func TestLoadSkipsCommentsAndBlanks(t *testing.T) {
	in := "omega-graph v1\n# comment\nL p\n\nN a\nN b\nE 0 0 1\n"
	g, err := Load(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d nodes %d edges, want 2/1", g.NumNodes(), g.NumEdges())
	}
}

// newStream is a node stream over g with a fresh seen set.
func newStream(g *Graph, sources [][]NodeID, includeRest bool) *NodeStream {
	return NewNodeStreamWith(g, sources, includeRest, bitset.New(g.NumNodes()))
}

func TestNodeStreamDistinctAndOrdered(t *testing.T) {
	g := buildSample(t)
	a, b, c := id(t, g, "a"), id(t, g, "b"), id(t, g, "c")
	s := newStream(g, [][]NodeID{{a, b}, {b, c, a}}, false)
	got := s.Drain()
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Fatalf("stream = %v, want [%d %d %d]", got, a, b, c)
	}
}

func TestNodeStreamIncludeRest(t *testing.T) {
	g := buildSample(t)
	b := id(t, g, "b")
	s := newStream(g, [][]NodeID{{b}}, true)
	got := s.Drain()
	if len(got) != g.NumNodes() {
		t.Fatalf("stream yielded %d nodes, want %d", len(got), g.NumNodes())
	}
	if got[0] != b {
		t.Fatalf("first node = %d, want %d (source first)", got[0], b)
	}
	seen := map[NodeID]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("node %d delivered twice", n)
		}
		seen[n] = true
	}
}

func TestNodeStreamBatching(t *testing.T) {
	g := buildSample(t)
	s := newStream(g, nil, true)
	buf := make([]NodeID, 2)
	var total int
	for {
		n := s.Next(buf)
		if n == 0 {
			break
		}
		if n > 2 {
			t.Fatalf("batch of %d exceeds buffer", n)
		}
		total += n
	}
	if total != g.NumNodes() {
		t.Fatalf("streamed %d nodes, want %d", total, g.NumNodes())
	}
}

func BenchmarkFreeze100k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	bl := NewBuilder()
	const n = 10000
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = bl.AddNode("n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('a'+(i/17576)%26)))
	}
	for i := 0; i < 100000; i++ {
		_ = bl.AddEdge(ids[rng.Intn(n)], "p", ids[rng.Intn(n)])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Freeze()
	}
}

func BenchmarkNeighbors(b *testing.B) {
	g := buildSample(b)
	knows, _ := g.Label("knows")
	a, _ := g.LookupNode("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Neighbors(a, knows, Out)
	}
}
