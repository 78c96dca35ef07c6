// Command omega-gen generates a workload dataset and writes it to disk in
// the omega-graph / omega-ontology v1 text formats, so that it can be
// inspected, version-controlled or loaded by `omega -graph/-ontology`.
//
// Usage:
//
//	omega-gen -data l4all:L2 -out ./l2
//	omega-gen -data yago:0.5 -out ./yago-half
//
// writes <out>/graph.txt and <out>/ontology.txt.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"omega"
)

func main() {
	var (
		data = flag.String("data", "l4all:L1", "dataset: l4all:L1..L4 or yago:<scale factor>")
		out  = flag.String("out", ".", "output directory")
	)
	flag.Parse()

	g, ont, err := omega.LoadDataset(*data, "", "")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	graphPath := filepath.Join(*out, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		fatal(err)
	}
	if err := omega.SaveGraph(f, g); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	ontPath := filepath.Join(*out, "ontology.txt")
	of, err := os.Create(ontPath)
	if err != nil {
		fatal(err)
	}
	if err := omega.SaveOntology(of, ont); err != nil {
		fatal(err)
	}
	if err := of.Close(); err != nil {
		fatal(err)
	}

	fmt.Printf("wrote %s (%d nodes, %d edges) and %s\n", graphPath, g.NumNodes(), g.NumEdges(), ontPath)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "omega-gen: %v\n", err)
	os.Exit(1)
}
