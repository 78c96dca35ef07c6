package graph

import "omega/internal/bitset"

// NodeStream yields distinct nodes drawn from an ordered list of sources,
// batch by batch. It backs the coroutine-style incremental retrieval of
// initial nodes in the paper's Open procedure (§3.3): the functions
// GetAllNodesByLabel / GetAllStartNodesByLabel obtain nodes "incrementally
// ... in batches (the default is 100 nodes at a time)", maintaining a
// distinct set so that no node is delivered twice.
type NodeStream struct {
	sources [][]NodeID
	rest    bool // after sources, yield every remaining node of the graph
	g       *Graph
	seen    *bitset.Set
	si, ei  int    // cursor: source index, element index
	ri      NodeID // cursor for the rest-of-graph sweep
}

// NewNodeStreamWith returns a stream over the concatenation of the given
// node slices, de-duplicated in first-appearance order. If includeRest is
// true, all nodes of g not already yielded follow in increasing NodeID order
// (step (iv) of GetAllNodesByLabel). seen, a set over g's nodes, records what
// the stream has yielded: a pooled execution reuses one graph-sized bitmap
// across requests instead of allocating a fresh one per stream. The set is
// cleared here, and the stream owns it until it is exhausted or abandoned.
func NewNodeStreamWith(g *Graph, sources [][]NodeID, includeRest bool, seen *bitset.Set) *NodeStream {
	seen.Clear()
	return &NodeStream{
		sources: sources,
		rest:    includeRest,
		g:       g,
		seen:    seen,
	}
}

// Next fills dst with up to len(dst) distinct nodes and returns the number
// delivered. A return of 0 means the stream is exhausted.
func (s *NodeStream) Next(dst []NodeID) int {
	n := 0
	for n < len(dst) && s.si < len(s.sources) {
		src := s.sources[s.si]
		if s.ei >= len(src) {
			s.si++
			s.ei = 0
			continue
		}
		v := src[s.ei]
		s.ei++
		if s.seen.Add(int(v)) {
			dst[n] = v
			n++
		}
	}
	if s.rest {
		max := NodeID(s.g.NumNodes())
		for n < len(dst) && s.ri < max {
			v := s.ri
			s.ri++
			if s.seen.Add(int(v)) {
				dst[n] = v
				n++
			}
		}
	}
	return n
}

// Drain returns all remaining nodes in the stream.
func (s *NodeStream) Drain() []NodeID {
	var out []NodeID
	buf := make([]NodeID, 256)
	for {
		n := s.Next(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}
