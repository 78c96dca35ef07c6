// Package graph implements the in-memory graph store used by Omega.
//
// It substitutes for the Sparksee store used in the paper (§3.1–3.2): nodes
// carry a unique string label backed by an attribute index; edges are typed
// by interned labels; per-label adjacency is frozen into CSR form for both
// directions, which reproduces Sparksee's "neighbour index on edge type"
// access path. Beside them, one node-major incidence index lists each node's
// neighbours over all labels and both directions, the §3.2 retrieval of every
// incident edge a wildcard needs. The store exposes the access surface the
// evaluation layer needs: Neighbors, Incident, Heads, Tails, TailsAndHeads and
// batched node iterators.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node in a frozen Graph. IDs are dense, starting at 0.
type NodeID int32

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// LabelID identifies an interned edge label.
type LabelID int32

// InvalidLabel is returned by lookups that find no label.
const InvalidLabel LabelID = -1

// TypeLabel is the reserved edge label connecting an entity instance to its
// class (the paper's `type`, standing in for rdf:type).
const TypeLabel = "type"

// Direction selects which incident edges of a node to follow.
type Direction uint8

const (
	// Out follows edges with the node as source.
	Out Direction = iota
	// In follows edges with the node as target.
	In
	// Both follows edges in either direction.
	Both
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	case Both:
		return "both"
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

// Reverse returns the opposite direction (Both is its own reverse).
func (d Direction) Reverse() Direction {
	switch d {
	case Out:
		return In
	case In:
		return Out
	}
	return Both
}

type rawEdge struct {
	src, dst NodeID
	label    LabelID
}

// Builder accumulates nodes and edges and freezes them into a Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	labelIDs   map[string]LabelID
	labelNames []string
	nodeIDs    map[string]NodeID
	nodeLabels []string
	edges      []rawEdge
	edgeSeen   map[rawEdge]struct{}
	dedupe     bool
}

// NewBuilder returns an empty Builder that silently ignores duplicate edges.
func NewBuilder() *Builder {
	return &Builder{
		labelIDs: make(map[string]LabelID),
		nodeIDs:  make(map[string]NodeID),
		edgeSeen: make(map[rawEdge]struct{}),
		dedupe:   true,
	}
}

// AddNode returns the node with the given unique label, creating it if
// needed. The label plays the role of the indexed node attribute in §3.2.
func (b *Builder) AddNode(label string) NodeID {
	if id, ok := b.nodeIDs[label]; ok {
		return id
	}
	id := NodeID(len(b.nodeLabels))
	b.nodeIDs[label] = id
	b.nodeLabels = append(b.nodeLabels, label)
	return id
}

// Node returns the node with the given label, if present.
func (b *Builder) Node(label string) (NodeID, bool) {
	id, ok := b.nodeIDs[label]
	return id, ok
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLabels) }

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// internLabel returns the LabelID for name, interning it if new.
func (b *Builder) internLabel(name string) LabelID {
	if id, ok := b.labelIDs[name]; ok {
		return id
	}
	id := LabelID(len(b.labelNames))
	b.labelIDs[name] = id
	b.labelNames = append(b.labelNames, name)
	return id
}

// AddEdge adds a directed edge src -label-> dst. Nodes must have been created
// by AddNode. Duplicate edges are ignored. It returns an error if either
// endpoint is out of range.
func (b *Builder) AddEdge(src NodeID, label string, dst NodeID) error {
	if src < 0 || int(src) >= len(b.nodeLabels) {
		return fmt.Errorf("graph: AddEdge: source node %d out of range", src)
	}
	if dst < 0 || int(dst) >= len(b.nodeLabels) {
		return fmt.Errorf("graph: AddEdge: target node %d out of range", dst)
	}
	if label == "" {
		return fmt.Errorf("graph: AddEdge: empty edge label")
	}
	e := rawEdge{src: src, dst: dst, label: b.internLabel(label)}
	if b.dedupe {
		if _, dup := b.edgeSeen[e]; dup {
			return nil
		}
		b.edgeSeen[e] = struct{}{}
	}
	b.edges = append(b.edges, e)
	return nil
}

// AddTriple adds an edge between nodes identified by their labels, creating
// the endpoint nodes as needed.
func (b *Builder) AddTriple(srcLabel, edgeLabel, dstLabel string) error {
	return b.AddEdge(b.AddNode(srcLabel), edgeLabel, b.AddNode(dstLabel))
}

// adjacency is a dense CSR: off has numNodes+1 entries and is indexed
// directly by NodeID, so a neighbour lookup is two array reads with no
// hashing. srcs keeps the sorted set of nodes with at least one edge for
// Tails/Heads, which want only non-isolated nodes.
type adjacency struct {
	srcs []NodeID // sorted, unique nodes with ≥1 edge
	off  []int32  // len(numNodes)+1, indexed by NodeID
	dsts []NodeID // concatenated neighbour lists, each sorted
}

func (a *adjacency) neighbors(n NodeID) []NodeID {
	if n < 0 || int(n)+1 >= len(a.off) {
		return nil
	}
	return a.dsts[a.off[n]:a.off[n+1]]
}

// Graph is a frozen, immutable graph store. Safe for concurrent readers.
type Graph struct {
	labelIDs   map[string]LabelID
	labelNames []string
	nodeIDs    map[string]NodeID
	nodeLabels []string
	out, in    []adjacency // indexed by LabelID
	// inc is the node-major incidence index behind Incident: one list per
	// node, the per-label CSRs laid end to end (no srcs).
	inc       adjacency
	edgeCount []int // per label
	numEdges  int
	typeID    LabelID // InvalidLabel when absent
}

// Freeze builds the immutable Graph. The Builder remains usable, but edges
// added afterwards are not reflected in the frozen Graph.
func (b *Builder) Freeze() *Graph {
	g := &Graph{
		labelIDs:   make(map[string]LabelID, len(b.labelIDs)),
		labelNames: append([]string(nil), b.labelNames...),
		nodeIDs:    make(map[string]NodeID, len(b.nodeIDs)),
		nodeLabels: append([]string(nil), b.nodeLabels...),
		out:        make([]adjacency, len(b.labelNames)),
		in:         make([]adjacency, len(b.labelNames)),
		edgeCount:  make([]int, len(b.labelNames)),
		numEdges:   len(b.edges),
		typeID:     InvalidLabel,
	}
	for name, id := range b.labelIDs {
		g.labelIDs[name] = id
	}
	for name, id := range b.nodeIDs {
		g.nodeIDs[name] = id
	}
	if id, ok := g.labelIDs[TypeLabel]; ok {
		g.typeID = id
	}

	// Bucket edges per label, then build both CSR directions.
	byLabel := make([][]rawEdge, len(b.labelNames))
	for _, e := range b.edges {
		byLabel[e.label] = append(byLabel[e.label], e)
		g.edgeCount[e.label]++
	}
	numNodes := len(b.nodeLabels)
	for l, edges := range byLabel {
		g.out[l] = buildAdjacency(edges, false, numNodes)
		g.in[l] = buildAdjacency(edges, true, numNodes)
	}
	g.inc = buildIncidence(g.out, g.in, numNodes, len(b.edges))
	return g
}

// buildIncidence lays the per-label CSRs out node-major: node n's list holds,
// per label in LabelID order, its Out neighbours and then its In neighbours.
// It costs 2·edges NodeIDs plus nodes+1 offsets, and O(edges + non-empty
// segments) time.
func buildIncidence(out, in []adjacency, numNodes, numEdges int) adjacency {
	inc := adjacency{off: make([]int32, numNodes+1), dsts: make([]NodeID, 2*numEdges)}
	for l := range out {
		for _, a := range [2]*adjacency{&out[l], &in[l]} {
			for _, n := range a.srcs {
				inc.off[n+1] += a.off[n+1] - a.off[n]
			}
		}
	}
	for n := 0; n < numNodes; n++ {
		inc.off[n+1] += inc.off[n]
	}
	next := append([]int32(nil), inc.off[:numNodes]...)
	for l := range out {
		for _, a := range [2]*adjacency{&out[l], &in[l]} {
			for _, n := range a.srcs {
				next[n] += int32(copy(inc.dsts[next[n]:], a.neighbors(n)))
			}
		}
	}
	return inc
}

func buildAdjacency(edges []rawEdge, reverse bool, numNodes int) adjacency {
	type pair struct{ a, b NodeID }
	pairs := make([]pair, len(edges))
	for i, e := range edges {
		if reverse {
			pairs[i] = pair{e.dst, e.src}
		} else {
			pairs[i] = pair{e.src, e.dst}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	var adj adjacency
	adj.off = make([]int32, numNodes+1)
	adj.dsts = make([]NodeID, 0, len(pairs))
	i := 0
	for n := 0; n < numNodes; n++ {
		adj.off[n] = int32(len(adj.dsts))
		if i < len(pairs) && pairs[i].a == NodeID(n) {
			adj.srcs = append(adj.srcs, NodeID(n))
			for ; i < len(pairs) && pairs[i].a == NodeID(n); i++ {
				adj.dsts = append(adj.dsts, pairs[i].b)
			}
		}
	}
	adj.off[numNodes] = int32(len(adj.dsts))
	return adj
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeLabels) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels returns the number of distinct edge labels (including type).
func (g *Graph) NumLabels() int { return len(g.labelNames) }

// TypeID returns the LabelID of the reserved `type` label, or InvalidLabel if
// the graph has no type edges.
func (g *Graph) TypeID() LabelID { return g.typeID }

// NodeLabel returns the unique label of node n, or "" if out of range.
func (g *Graph) NodeLabel(n NodeID) string {
	if n < 0 || int(n) >= len(g.nodeLabels) {
		return ""
	}
	return g.nodeLabels[n]
}

// LookupNode finds a node by its unique label (the attribute index of §3.2).
func (g *Graph) LookupNode(label string) (NodeID, bool) {
	id, ok := g.nodeIDs[label]
	if !ok {
		return InvalidNode, false
	}
	return id, true
}

// Label finds an interned edge label by name.
func (g *Graph) Label(name string) (LabelID, bool) {
	id, ok := g.labelIDs[name]
	if !ok {
		return InvalidLabel, false
	}
	return id, true
}

// LabelName returns the name of label l, or "" if out of range.
func (g *Graph) LabelName(l LabelID) string {
	if l < 0 || int(l) >= len(g.labelNames) {
		return ""
	}
	return g.labelNames[l]
}

// Labels returns all edge label names in interning order.
func (g *Graph) Labels() []string { return append([]string(nil), g.labelNames...) }

// EdgeCount returns the number of edges carrying label l.
func (g *Graph) EdgeCount(l LabelID) int {
	if l < 0 || int(l) >= len(g.edgeCount) {
		return 0
	}
	return g.edgeCount[l]
}

// Neighbors returns the neighbours of n along edges labelled l in direction
// dir. For dir == Both the two lists are concatenated (allocating); for Out
// and In the returned slice aliases internal storage and must not be
// modified. This is the Sparksee Neighbors operation of §3.1.
func (g *Graph) Neighbors(n NodeID, l LabelID, dir Direction) []NodeID {
	if l < 0 || int(l) >= len(g.out) {
		return nil
	}
	switch dir {
	case Out:
		return g.out[l].neighbors(n)
	case In:
		return g.in[l].neighbors(n)
	default:
		o := g.out[l].neighbors(n)
		i := g.in[l].neighbors(n)
		if len(i) == 0 {
			return o
		}
		if len(o) == 0 {
			return i
		}
		merged := make([]NodeID, 0, len(o)+len(i))
		merged = append(merged, o...)
		return append(merged, i...)
	}
}

// AppendNeighbors appends the neighbours of n along l in direction dir to
// dst and returns the extended slice. For Both the Out list precedes the In
// list. It performs no allocation beyond growing dst.
func (g *Graph) AppendNeighbors(dst []NodeID, n NodeID, l LabelID, dir Direction) []NodeID {
	if l < 0 || int(l) >= len(g.out) {
		return dst
	}
	if dir == Out || dir == Both {
		dst = append(dst, g.out[l].neighbors(n)...)
	}
	if dir == In || dir == Both {
		dst = append(dst, g.in[l].neighbors(n)...)
	}
	return dst
}

// Incident returns every neighbour of n over every incident edge, in either
// direction: per label in LabelID order (type included), the Out neighbours
// and then the In ones, as AppendNeighbors(…, Both) appends them label by
// label. It reads one node-major index built by Freeze, so its cost is the
// node's edges whatever the number of labels. The slice aliases internal
// storage and must not be modified.
func (g *Graph) Incident(n NodeID) []NodeID { return g.inc.neighbors(n) }

// Tails returns the nodes that are the source of at least one edge labelled
// l, in increasing NodeID order. The slice aliases internal storage.
func (g *Graph) Tails(l LabelID) []NodeID {
	if l < 0 || int(l) >= len(g.out) {
		return nil
	}
	return g.out[l].srcs
}

// Heads returns the nodes that are the target of at least one edge labelled
// l, in increasing NodeID order. The slice aliases internal storage.
func (g *Graph) Heads(l LabelID) []NodeID {
	if l < 0 || int(l) >= len(g.in) {
		return nil
	}
	return g.in[l].srcs
}

// TailsAndHeads returns the union of Tails(l) and Heads(l) (allocating).
func (g *Graph) TailsAndHeads(l LabelID) []NodeID {
	t, h := g.Tails(l), g.Heads(l)
	out := make([]NodeID, 0, len(t)+len(h))
	i, j := 0, 0
	for i < len(t) && j < len(h) {
		switch {
		case t[i] < h[j]:
			out = append(out, t[i])
			i++
		case t[i] > h[j]:
			out = append(out, h[j])
			j++
		default:
			out = append(out, t[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, t[i:]...)
	return append(out, h[j:]...)
}

// Degree returns the number of edges labelled l incident to n in direction
// dir (Both counts each direction separately).
func (g *Graph) Degree(n NodeID, l LabelID, dir Direction) int {
	switch dir {
	case Out:
		return len(g.Neighbors(n, l, Out))
	case In:
		return len(g.Neighbors(n, l, In))
	default:
		return len(g.Neighbors(n, l, Out)) + len(g.Neighbors(n, l, In))
	}
}

// HasEdge reports whether the edge src -l-> dst exists.
func (g *Graph) HasEdge(src NodeID, l LabelID, dst NodeID) bool {
	ns := g.Neighbors(src, l, Out)
	// Neighbour lists are sorted; binary search.
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == dst
}
