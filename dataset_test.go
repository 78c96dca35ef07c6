package omega

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadDataset drives the one dataset loader the command-line tools share:
// builtin specs, graph files in both formats, and the rejections, whose
// messages carry no binary prefix (each tool adds its own).
func TestLoadDataset(t *testing.T) {
	dir := t.TempDir()
	g, ont := exampleGraph(t)
	var gb, ob bytes.Buffer
	if err := SaveGraph(&gb, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveOntology(&ob, ont); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	txt, ontFile := write("graph.txt", gb.String()), write("ontology.txt", ob.String())
	nt := write("graph.nt", "<http://x/alice> <http://x/knows> <http://x/bob> .\n<http://x/bob> <http://x/knows> <http://x/carol> .\n")

	for _, tc := range []struct {
		name                  string
		spec, graph, ontology string
		err                   string // non-empty: the load fails with an error containing this
		nodes                 int    // else the graph's node count (0: any, as long as some)
		withOnt               bool   // and whether an ontology comes with it
	}{
		{name: "l4all:L1", spec: "l4all:L1", withOnt: true},
		{name: "bad yago scale", spec: "yago:big", err: `bad yago scale "big"`},
		{name: "unknown dataset", spec: "dbpedia:1", err: `unknown dataset "dbpedia:1"`},
		{name: "omega-graph file", graph: txt, ontology: ontFile, nodes: g.NumNodes(), withOnt: true},
		{name: "N-Triples file", graph: nt, nodes: 3},
		{name: "nothing given", err: "provide -data or -graph"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ont, err := LoadDataset(tc.spec, tc.graph, tc.ontology)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				if strings.HasPrefix(err.Error(), "omega") {
					t.Fatalf("err %q carries a binary prefix", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.NumNodes() == 0 || tc.nodes > 0 && g.NumNodes() != tc.nodes {
				t.Fatalf("loaded %d nodes, want %d", g.NumNodes(), tc.nodes)
			}
			if (ont != nil) != tc.withOnt {
				t.Fatalf("ontology loaded = %v, want %v", ont != nil, tc.withOnt)
			}
		})
	}
}
