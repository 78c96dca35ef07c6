package omega_test

import (
	"context"
	"fmt"

	"omega"
)

// Example reproduces the paper's motivating Examples 1–3 in miniature: an
// exact query with a direction mistake returns nothing; APPROX repairs the
// mistake at edit distance 1; RELAX generalises the property through the
// ontology. Four APPROX answers tie at distance 1 (Oxford, SummerFest, UK and
// alice); Collect(3) prints the first three the engine emits.
func Example() {
	b := omega.NewGraphBuilder()
	_ = b.AddTriple("Oxford", "isLocatedIn", "UK")
	_ = b.AddTriple("alice", "gradFrom", "Oxford")
	_ = b.AddTriple("SummerFest", "isLocatedIn", "UK")
	_ = b.AddTriple("SummerFest", "happenedIn", "Oxford")
	g := b.Freeze()

	ont := omega.NewOntology()
	ont.AddSubproperty("gradFrom", "relationLocatedByObject")
	ont.AddSubproperty("happenedIn", "relationLocatedByObject")

	eng := omega.NewEngine(g, ont)

	show := func(q string) {
		rows, err := eng.QueryText(q)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		got, _ := rows.Collect(3)
		if len(got) == 0 {
			fmt.Println("  no answers")
		}
		for _, r := range got {
			fmt.Printf("  %v\n", r)
		}
	}

	fmt.Println("exact:")
	show(`(?X) <- (UK, isLocatedIn-.gradFrom, ?X)`)
	fmt.Println("APPROX:")
	show(`(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)`)
	fmt.Println("RELAX:")
	show(`(?X) <- RELAX (UK, isLocatedIn-.gradFrom, ?X)`)

	// Output:
	// exact:
	//   no answers
	// APPROX:
	//   [?X=Oxford] dist=1
	//   [?X=SummerFest] dist=1
	//   [?X=UK] dist=1
	// RELAX:
	//   [?X=Oxford] dist=1
}

// ExampleEngine_Prepare shows the serving shape: compile a query once, then
// execute it per request with a context and per-call ExecOptions. Close (via
// ForEach here) releases the run's state deterministically.
func ExampleEngine_Prepare() {
	b := omega.NewGraphBuilder()
	_ = b.AddTriple("Oxford", "isLocatedIn", "UK")
	_ = b.AddTriple("alice", "gradFrom", "Oxford")
	eng := omega.NewEngine(b.Freeze(), nil)

	pq, _ := eng.PrepareText(`(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)`)
	// Any number of goroutines may share pq; each Exec is one request.
	rows, _ := pq.Exec(context.Background(), omega.ExecOptions{Limit: 2})
	_ = rows.ForEach(context.Background(), func(r omega.Row) error {
		fmt.Println(r)
		return nil
	})
	automata, _ := pq.CompileStats()
	fmt.Printf("%d automata, compiled once\n", automata)
	// Output:
	// [?X=Oxford] dist=1
	// [?X=alice] dist=1
	// 1 automata, compiled once
}

// ExampleEngine_Explain shows the evaluation plan for a flexible query.
func ExampleEngine_Explain() {
	b := omega.NewGraphBuilder()
	_ = b.AddTriple("a", "p", "b")
	eng := omega.NewEngine(b.Freeze(), nil)
	plan, _ := eng.Explain(`(?X) <- APPROX (a, p, ?X)`)
	fmt.Print(plan)
	// Output:
	// conjunct 1: APPROX (a, p, ?X)
	//   case 1: constant subject, 1 seed(s)
	//   automaton (APPROX): 2 states, 4 compiled transitions
	//   backend: ranked GetNext (auto: APPROX mode ranks answers by distance)
}
