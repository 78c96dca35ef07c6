// Benchmarks regenerating the paper's tables and figures (one testing.B
// bench per table/figure) plus ablations of the design choices called out in
// DESIGN.md §6. The testing.B benches run the L1/L2 scales to keep `go test
// -bench=.` bounded; cmd/omega-bench reproduces the full L1–L4 study
// (including the ~20 s APPROX Q9 blow-ups at L3/L4 that mirror the paper's
// exponential growth).
package omega

import (
	"math"
	"sync"
	"testing"

	"omega/internal/core"
	"omega/internal/l4all"
	"omega/internal/yago"
)

// testDatasets lazily generates and caches the study workloads for this test
// package.
type testDatasets struct {
	mu sync.Mutex
	l4 map[l4all.Scale]l4Pair
	yg *l4Pair
}

type l4Pair struct {
	g   *Graph
	ont *Ontology
}

func (d *testDatasets) L4All(s l4all.Scale) (*Graph, *Ontology) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.l4[s]; ok {
		return e.g, e.ont
	}
	g, ont := l4all.Generate(s)
	d.l4[s] = l4Pair{g, ont}
	return g, ont
}

func (d *testDatasets) YAGO() (*Graph, *Ontology) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.yg == nil {
		g, ont := yago.Generate(yago.DefaultConfig())
		d.yg = &l4Pair{g, ont}
	}
	return d.yg.g, d.yg.ont
}

var testData = &testDatasets{l4: map[l4all.Scale]l4Pair{}}

func datasets() *testDatasets { return testData }

func benchScales() []l4all.Scale { return []l4all.Scale{l4all.L1, l4all.L2} }

func l4allQueryText(b testing.TB, id string) string {
	b.Helper()
	for _, q := range l4all.Queries() {
		if q.ID == id {
			return q.Text
		}
	}
	b.Fatalf("unknown L4All query %s", id)
	return ""
}

func yagoQueryText(b testing.TB, id string) string {
	b.Helper()
	for _, q := range yago.Queries() {
		if q.ID == id {
			return q.Text
		}
	}
	b.Fatalf("unknown YAGO query %s", id)
	return ""
}

// runOnce evaluates the query once, pulling at most limit answers
// (limit ≤ 0 = run to completion), and reports the answer count.
func runOnce(b *testing.B, g *Graph, ont *Ontology, text string, mode Mode, opts Options, limit int) int {
	b.Helper()
	q, err := ParseQuery(text)
	if err != nil {
		b.Fatal(err)
	}
	for i := range q.Conjuncts {
		q.Conjuncts[i].Mode = mode
	}
	it, err := Open(g, ont, q, opts)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for limit <= 0 || n < limit {
		_, ok, err := it.Next()
		if err == ErrTupleBudget {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	return n
}

var studyIDs = []string{"Q3", "Q8", "Q9", "Q10", "Q11", "Q12"}

// BenchmarkFig6Exact reproduces Figure 6: exact L4All queries run to
// completion.
func BenchmarkFig6Exact(b *testing.B) {
	for _, s := range benchScales() {
		g, ont := datasets().L4All(s)
		for _, id := range studyIDs {
			text := l4allQueryText(b, id)
			b.Run(s.String()+"/"+id, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runOnce(b, g, ont, text, Exact, Options{}, 0)
				}
			})
		}
	}
}

// BenchmarkFig7Approx reproduces Figure 7: APPROX L4All queries, top 100.
func BenchmarkFig7Approx(b *testing.B) {
	for _, s := range benchScales() {
		g, ont := datasets().L4All(s)
		for _, id := range studyIDs {
			text := l4allQueryText(b, id)
			b.Run(s.String()+"/"+id, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runOnce(b, g, ont, text, Approx, Options{}, 100)
				}
			})
		}
	}
}

// BenchmarkFig8Relax reproduces Figure 8: RELAX L4All queries, top 100.
func BenchmarkFig8Relax(b *testing.B) {
	for _, s := range benchScales() {
		g, ont := datasets().L4All(s)
		for _, id := range studyIDs {
			text := l4allQueryText(b, id)
			b.Run(s.String()+"/"+id, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runOnce(b, g, ont, text, Relax, Options{}, 100)
				}
			})
		}
	}
}

// BenchmarkFig5Counts regenerates the Figure 5 result counts (a correctness
// table rather than a timing figure; benchmarked here so the same harness
// covers every figure).
func BenchmarkFig5Counts(b *testing.B) {
	g, ont := datasets().L4All(l4all.L1)
	b.Run("L1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range studyIDs {
				text := l4allQueryText(b, id)
				runOnce(b, g, ont, text, Exact, Options{}, 0)
				runOnce(b, g, ont, text, Approx, Options{}, 100)
				runOnce(b, g, ont, text, Relax, Options{}, 100)
			}
		}
	})
}

var yagoStudyIDs = []string{"Q2", "Q3", "Q4", "Q5", "Q9"}

// BenchmarkFig11YAGO reproduces Figure 11: YAGO queries per mode. APPROX
// runs under the study's tuple budget; queries that exhaust it (Q4) measure
// time-to-failure, mirroring the paper's '?' entries.
func BenchmarkFig11YAGO(b *testing.B) {
	g, ont := datasets().YAGO()
	for _, id := range yagoStudyIDs {
		text := yagoQueryText(b, id)
		b.Run("exact/"+id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, g, ont, text, Exact, Options{}, 0)
			}
		})
		b.Run("approx/"+id, func(b *testing.B) {
			opts := Options{MaxTuples: 5_000_000}
			for i := 0; i < b.N; i++ {
				runOnce(b, g, ont, text, Approx, opts, 100)
			}
		})
		b.Run("relax/"+id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, g, ont, text, Relax, Options{}, 100)
			}
		})
	}
}

// BenchmarkFig10Counts regenerates the Figure 10 result counts, budgeted as
// in the study.
func BenchmarkFig10Counts(b *testing.B) {
	g, ont := datasets().YAGO()
	for i := 0; i < b.N; i++ {
		for _, id := range yagoStudyIDs {
			text := yagoQueryText(b, id)
			runOnce(b, g, ont, text, Exact, Options{}, 0)
			runOnce(b, g, ont, text, Approx, Options{MaxTuples: 5_000_000}, 100)
			runOnce(b, g, ont, text, Relax, Options{}, 100)
		}
	}
}

// BenchmarkOptDistanceAware reproduces §4.3 optimisation 1: APPROX queries
// with and without retrieval by distance.
func BenchmarkOptDistanceAware(b *testing.B) {
	gL2, ontL2 := datasets().L4All(l4all.L2)
	gy, onty := datasets().YAGO()
	cases := []struct {
		name string
		g    *Graph
		ont  *Ontology
		text string
	}{
		{"L2/Q3", gL2, ontL2, l4allQueryText(b, "Q3")},
		{"L2/Q9", gL2, ontL2, l4allQueryText(b, "Q9")},
		{"YAGO/Q2", gy, onty, yagoQueryText(b, "Q2")},
		{"YAGO/Q3", gy, onty, yagoQueryText(b, "Q3")},
	}
	for _, c := range cases {
		b.Run(c.name+"/off", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, c.g, c.ont, c.text, Approx, Options{}, 100)
			}
		})
		b.Run(c.name+"/on", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, c.g, c.ont, c.text, Approx, Options{DistanceAware: true}, 100)
			}
		})
	}
}

// BenchmarkOptDisjunction reproduces §4.3 optimisation 2: YAGO Q9's
// top-level alternation as a single automaton vs decomposed sub-automata.
func BenchmarkOptDisjunction(b *testing.B) {
	g, ont := datasets().YAGO()
	text := yagoQueryText(b, "Q9")
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Approx, Options{DistanceAware: true}, 100)
		}
	})
	b.Run("disjunction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Approx, Options{Disjunction: true}, 100)
		}
	})
}

// BenchmarkAblationFinalFirst ablates the final-tuples-first pop policy the
// paper credits with earlier answers (§3.3).
func BenchmarkAblationFinalFirst(b *testing.B) {
	g, ont := datasets().L4All(l4all.L1)
	text := l4allQueryText(b, "Q9")
	b.Run("finalFirst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Approx, Options{}, 100)
		}
	})
	b.Run("noFinalFirst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Approx, Options{NoFinalFirst: true}, 100)
		}
	})
}

// BenchmarkAblationBatching ablates the batched initial-node coroutines of
// Open/GetNext (§3.3 reports halved execution times for some queries).
func BenchmarkAblationBatching(b *testing.B) {
	g, ont := datasets().L4All(l4all.L2)
	text := l4allQueryText(b, "Q5") // (?X, next+, ?Y): Case 3, top-100
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"batch100", Options{BatchSize: 100}},
		{"batch1000", Options{BatchSize: 1000}},
		{"noBatching", Options{BatchSize: math.MaxInt32}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, g, ont, text, Exact, c.opts, 100)
			}
		})
	}
}

// BenchmarkAblationSuccCache ablates Succ's neighbour-set reuse across
// identical consecutive labels (§3.4).
func BenchmarkAblationSuccCache(b *testing.B) {
	g, ont := datasets().L4All(l4all.L1)
	text := l4allQueryText(b, "Q11")
	b.Run("cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Approx, Options{}, 100)
		}
	})
	b.Run("noCache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Approx, Options{NoSuccCache: true}, 100)
		}
	})
}

// BenchmarkExtRareSide measures the rare-side heuristic (EXTENSION; the
// paper's "leveraging rare labels" future-work item) on a conjunct whose
// object side is far rarer than its subject side.
func BenchmarkExtRareSide(b *testing.B) {
	g, ont := datasets().L4All(l4all.L2)
	text := "(?X, ?Y) <- (?X, job.type, ?Y)" // many episodes, few classes
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Exact, Options{}, 100)
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, g, ont, text, Exact, Options{RareSide: true}, 100)
		}
	})
}

// BenchmarkJoinStrategies measures the ranked join with and without the
// query-tree planner on a two-conjunct query.
func BenchmarkJoinStrategies(b *testing.B) {
	g, ont := datasets().L4All(l4all.L1)
	text := "(?X, ?Z) <- (?X, next, ?Y), (?Y, job, ?Z)"
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"round", Options{}},
		{"round+plan", Options{ReorderConjuncts: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, g, ont, text, Exact, c.opts, 100)
			}
		})
	}
}

// BenchmarkCoreGetNext measures raw GetNext throughput on a Case 3 conjunct
// (supporting microbenchmark for the §3.4 machinery).
func BenchmarkCoreGetNext(b *testing.B) {
	g, ont := datasets().L4All(l4all.L1)
	q, err := ParseQuery("(?X, ?Y) <- (?X, next, ?Y)")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := core.OpenQuery(g, ont, q, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
	}
}
