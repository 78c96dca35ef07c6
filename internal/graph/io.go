package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text serialisation is a line-oriented format:
//
//	omega-graph v1
//	L <edge-label>            one per label, in LabelID order
//	N <node-label>            one per node, in NodeID order
//	E <src> <label> <dst>     numeric ids referring to the tables above
//
// Node and edge labels are written verbatim; they must not contain newlines.

const magic = "omega-graph v1"

// ioBuffer is the size of Save's write buffer and of Load's first read
// buffer (a line may grow the latter to maxLine).
const ioBuffer, maxLine = 64 << 10, 1 << 20

// Save writes g to w in the omega-graph v1 text format.
func Save(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, ioBuffer)
	if _, err := fmt.Fprintln(bw, magic); err != nil {
		return err
	}
	for _, name := range g.labelNames {
		if strings.ContainsRune(name, '\n') {
			return fmt.Errorf("graph: Save: edge label %q contains newline", name)
		}
		fmt.Fprintf(bw, "L %s\n", name)
	}
	for _, name := range g.nodeLabels {
		if strings.ContainsRune(name, '\n') {
			return fmt.Errorf("graph: Save: node label %q contains newline", name)
		}
		fmt.Fprintf(bw, "N %s\n", name)
	}
	for l := range g.out {
		adj := &g.out[l]
		for _, src := range adj.srcs {
			for _, dst := range adj.neighbors(src) {
				fmt.Fprintf(bw, "E %d %d %d\n", src, l, dst)
			}
		}
	}
	return bw.Flush()
}

// Load reads a graph in the omega-graph v1 text format.
func Load(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, ioBuffer), maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graph: Load: %w", err)
		}
		return nil, fmt.Errorf("graph: Load: empty input")
	}
	if strings.TrimSpace(sc.Text()) != magic {
		return nil, fmt.Errorf("graph: Load: bad header %q", sc.Text())
	}
	b := NewBuilder()
	// Loading is append-only with dense ids, so the expensive duplicate-edge
	// map is unnecessary: Save never writes duplicates.
	b.dedupe = false
	var labels []string
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		switch {
		case strings.HasPrefix(text, "L "):
			labels = append(labels, text[2:])
		case strings.HasPrefix(text, "N "):
			b.AddNode(text[2:])
		case strings.HasPrefix(text, "E "):
			fields := strings.Fields(text[2:])
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: Load: line %d: malformed edge %q", line, text)
			}
			src, err1 := strconv.Atoi(fields[0])
			lab, err2 := strconv.Atoi(fields[1])
			dst, err3 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: Load: line %d: malformed edge %q", line, text)
			}
			if lab < 0 || lab >= len(labels) {
				return nil, fmt.Errorf("graph: Load: line %d: label id %d out of range", line, lab)
			}
			if err := b.AddEdge(NodeID(src), labels[lab], NodeID(dst)); err != nil {
				return nil, fmt.Errorf("graph: Load: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: Load: line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: Load: %w", err)
	}
	return b.Freeze(), nil
}
