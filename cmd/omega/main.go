// Command omega evaluates conjunctive regular path queries with the APPROX
// and RELAX flexible operators over a graph dataset.
//
// Usage:
//
//	omega -data l4all:L1 -query '(?X) <- APPROX (Librarians, type-, ?X)' [-limit 100]
//	omega -data yago:0.1 -query '(?X) <- RELAX (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom), ?X)'
//	omega -graph g.txt -ontology o.txt -query '...'
//
// Datasets:
//
//	l4all:L1 .. l4all:L4   the paper's §4.1 workload at the given scale
//	yago:<factor>          the synthetic YAGO workload (§4.2), scaled
//	-graph/-ontology       files in the omega-graph/omega-ontology v1 formats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"omega"
)

func main() {
	var (
		data        = flag.String("data", "", "builtin dataset: l4all:L1..L4 or yago:<scale factor>")
		graphFile   = flag.String("graph", "", "graph file (omega-graph v1)")
		ontFile     = flag.String("ontology", "", "ontology file (omega-ontology v1)")
		queryText   = flag.String("query", "", "CRP query, e.g. '(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)'")
		distAware   = flag.Bool("distance-aware", false, "enable §4.3 retrieval by distance")
		disjunct    = flag.Bool("disjunction", false, "enable §4.3 alternation-by-disjunction")
		rareSide    = flag.Bool("rare-side", false, "evaluate (?X,R,?Y) conjuncts from the rarer end (extension)")
		stats       = flag.Bool("stats", false, "print evaluation statistics")
		analyze     = flag.Bool("analyze", false, "EXPLAIN ANALYZE: run the query traced and print the plan, the span tree and the statistics")
		explain     = flag.Bool("explain", false, "print the evaluation plan instead of running the query")
		interactive = flag.Bool("interactive", false, "start the interactive console (paper's console layer)")
		batch       = flag.Int("batch", 10, "answers per console batch (interactive mode)")
	)
	// The execution knobs — mode, limit, maxdist, max-tuples, backend and
	// hard-mem — come from the shared knob registry, so they parse and
	// validate exactly as their HTTP parameter counterparts.
	knobs := omega.BindExecFlags(flag.CommandLine, map[string]string{
		"limit":   "100",
		"backend": "auto",
	})
	flag.Parse()

	if *queryText == "" && !*interactive {
		fmt.Fprintln(os.Stderr, "omega: -query or -interactive is required")
		flag.Usage()
		os.Exit(2)
	}
	g, ont, err := omega.LoadDataset(*data, *graphFile, *ontFile)
	if err != nil {
		fatal(err)
	}

	var eo omega.ExecOptions
	if err := knobs.Apply(&eo); err != nil {
		fatal(err)
	}
	eng := omega.NewEngine(g, ont).WithOptions(omega.Options{
		DistanceAware: *distAware,
		Disjunction:   *disjunct,
		RareSide:      *rareSide,
	})

	if *interactive {
		repl(os.Stdin, os.Stdout, eng, eo, *batch)
		return
	}

	// Prepare once, execute with a signal-cancellable context: ctrl-C stops
	// the query within one GetNext iteration and releases its state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	pq, err := eng.PrepareText(*queryText)
	if err != nil {
		fatal(err)
	}
	if *explain || *analyze {
		// The plan of the execution below, under the same knobs.
		plan, err := pq.Explain(eo)
		if err != nil {
			fatal(err)
		}
		if *explain {
			fmt.Print(plan)
			return
		}
		// EXPLAIN ANALYZE: the plan first, then the traced run.
		fmt.Fprint(os.Stderr, plan)
		eo.Trace = omega.NewTrace("")
	}
	rows, err := pq.Exec(ctx, eo)
	if err != nil {
		fatal(err)
	}
	defer rows.Close()

	count := 0
	for {
		row, ok, err := rows.Next()
		if errors.Is(err, omega.ErrCanceled) {
			fmt.Fprintf(os.Stderr, "omega: canceled (after %d answers)\n", count)
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "omega: %v (after %d answers)\n", err, count)
			os.Exit(1)
		}
		if !ok {
			break
		}
		fmt.Println(row)
		count++
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "%d answers in %v\n", count, elapsed)
	if *analyze {
		// Close first so the close span (resource release) is part of the tree.
		_ = rows.Close()
		rows.TraceSummary().Render(os.Stderr)
	}
	if *stats || *analyze {
		s := rows.Stats()
		fmt.Fprintf(os.Stderr, "backend=%s tuples added=%d popped=%d visited=%d phases=%d deferred=%d reinjected=%d neighbour-calls=%d prep-ops=%d max-delay-ops=%d\n",
			s.Backend, s.TuplesAdded, s.TuplesPopped, s.VisitedSize, s.Phases, s.Deferred, s.Reinjected, s.NeighborCalls, s.PrepOps, s.MaxDelayOps)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "omega: %v\n", err)
	os.Exit(1)
}
