package omega

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"omega/internal/l4all"
)

// answerSetKeys projects ranked answers onto order-independent row keys. Bulk
// and ranked agree on answer *sets*; emission order is each backend's own.
func answerSetKeys(as []QueryAnswer) []string {
	keys := make([]string, 0, len(as))
	for _, a := range as {
		var b strings.Builder
		for _, n := range a.Nodes {
			fmt.Fprintf(&b, "%d|", n)
		}
		fmt.Fprintf(&b, "d%d", a.Dist)
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	return keys
}

func requireSameSet(t *testing.T, label string, ranked, bulk []QueryAnswer) {
	t.Helper()
	rk, bk := answerSetKeys(ranked), answerSetKeys(bulk)
	if len(rk) != len(bk) {
		t.Fatalf("%s: ranked %d rows, bulk %d rows", label, len(rk), len(bk))
	}
	for i := range rk {
		if rk[i] != bk[i] {
			t.Fatalf("%s: row %d of sorted sets differs: ranked %q, bulk %q", label, i, rk[i], bk[i])
		}
	}
}

// TestBulkMatchesRankedCorpus is the bulk-vs-ranked answer-set contract over
// the full Figure 4 corpus plus shapes the corpus lacks: constant objects
// (final-state annotation), same-variable conjuncts, collapsing projections,
// and a multi-conjunct join — each exhaustive, in exact mode, with and
// without alternation-by-disjunction (which makes the bulk iterator chain
// per-alternand automata behind its pair de-dup).
func TestBulkMatchesRankedCorpus(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	var texts []string
	for _, q := range l4all.Queries() {
		texts = append(texts, q.Text)
	}
	texts = append(texts,
		"(?X) <- (?X, type, Librarians)",
		"(?X) <- (?X, next+, ?X)",
		"(?Y) <- (?X, job.type, ?Y)",
		"(?X, ?Z) <- (?X, next, ?Y), (?Y, job, ?Z)",
		"(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)",
	)
	for _, disj := range []bool{false, true} {
		for _, text := range texts {
			label := fmt.Sprintf("%q disjunction=%v", text, disj)
			opts := Options{Disjunction: disj}
			ranked := collectAnswers(t, g, ont, text, Exact, opts, ExecOptions{Backend: BackendRanked}, 0)
			bulk := collectAnswers(t, g, ont, text, Exact, opts, ExecOptions{Backend: BackendBulk}, 0)
			requireSameSet(t, label, ranked, bulk)
		}
	}
}

// TestBulkFuzzDifferential hammers the two backends with randomized regular
// path queries over a seeded random graph: every expression the generator can
// emit (concatenation, alternation, inversion, + and * closures) must produce
// identical exhaustive exact answer sets. The seed is fixed, so a failure
// replays exactly.
func TestBulkFuzzDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		nodes  = 150
		edges  = 700
		labels = 4
		trials = 40
	)
	b := NewGraphBuilder()
	for i := 0; i < edges; i++ {
		s := fmt.Sprintf("n%d", rng.Intn(nodes))
		o := fmt.Sprintf("n%d", rng.Intn(nodes))
		p := fmt.Sprintf("p%d", rng.Intn(labels))
		if err := b.AddTriple(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()

	var atom func(depth int) string
	atom = func(depth int) string {
		l := fmt.Sprintf("p%d", rng.Intn(labels))
		if rng.Intn(3) == 0 {
			l += "-" // inverse
		}
		switch rng.Intn(6) {
		case 0:
			l += "+"
		case 1:
			l += "*"
		}
		if depth > 0 && rng.Intn(4) == 0 {
			return "(" + l + "|" + atom(depth-1) + ")"
		}
		return l
	}
	expr := func() string {
		parts := 1 + rng.Intn(3)
		var sb strings.Builder
		for i := 0; i < parts; i++ {
			if i > 0 {
				sb.WriteByte('.')
			}
			sb.WriteString(atom(1))
		}
		return sb.String()
	}

	for trial := 0; trial < trials; trial++ {
		e := expr()
		text := fmt.Sprintf("(?X, ?Y) <- (?X, %s, ?Y)", e)
		if trial%3 == 0 {
			// Constant-subject variant: exercises Case 1 seeding.
			text = fmt.Sprintf("(?X) <- (n%d, %s, ?X)", rng.Intn(nodes), e)
		}
		for _, disj := range []bool{false, true} {
			label := fmt.Sprintf("trial %d %q disjunction=%v", trial, text, disj)
			opts := Options{Disjunction: disj}
			ranked := collectAnswers(t, g, nil, text, Exact, opts, ExecOptions{Backend: BackendRanked}, 0)
			bulk := collectAnswers(t, g, nil, text, Exact, opts, ExecOptions{Backend: BackendBulk}, 0)
			requireSameSet(t, label, ranked, bulk)
		}
	}
}

// TestBulkConcurrentExecutions runs bulk and pooled ranked executions of one
// PreparedQuery concurrently: the lazily built bulk index is shared through
// the plan (its mutex is the -race target), pooled ranked bundles recycle
// next to it, and every execution must still produce the baseline answer set.
func TestBulkConcurrentExecutions(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, job.type, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	collect := func(eo ExecOptions) ([]QueryAnswer, string, error) {
		rows, err := pq.Exec(context.Background(), eo)
		if err != nil {
			return nil, "", err
		}
		defer rows.Close()
		var out []QueryAnswer
		for {
			r, ok, err := rows.Next()
			if err != nil {
				return nil, "", err
			}
			if !ok {
				break
			}
			out = append(out, QueryAnswer{Nodes: r.Nodes, Dist: int32(r.Dist)})
		}
		return out, rows.Stats().Backend, nil
	}
	want, backend, err := collect(ExecOptions{Backend: BackendRanked})
	if err != nil {
		t.Fatal(err)
	}
	if backend != "ranked" {
		t.Fatalf("baseline Stats.Backend = %q, want ranked", backend)
	}

	const workers = 8
	pool := NewEvalPool(workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				eo := ExecOptions{Backend: BackendBulk}
				wantBackend := "bulk"
				if (w+rep)%2 == 1 {
					eo = ExecOptions{Backend: BackendRanked, Pool: pool}
					wantBackend = "ranked"
				}
				got, backend, err := collect(eo)
				if err != nil {
					errs <- fmt.Errorf("worker %d rep %d: %w", w, rep, err)
					return
				}
				if backend != wantBackend {
					errs <- fmt.Errorf("worker %d rep %d: Stats.Backend = %q, want %q", w, rep, backend, wantBackend)
					return
				}
				rk, bk := answerSetKeys(want), answerSetKeys(got)
				if len(rk) != len(bk) {
					errs <- fmt.Errorf("worker %d rep %d (%s): %d rows, baseline %d", w, rep, wantBackend, len(bk), len(rk))
					return
				}
				for i := range rk {
					if rk[i] != bk[i] {
						errs <- fmt.Errorf("worker %d rep %d (%s): sorted row %d differs", w, rep, wantBackend, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
