package omega

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"omega/internal/l4all"
)

// parLevels are the worker counts the differential suite sweeps. 1 must be a
// true serial run (the parallel machinery never engages), 2 exercises the
// smallest real shard split, 8 exercises contention.
var parLevels = []int{1, 2, 8}

// requireSameRows asserts that got is the byte-identical ordered emission of
// want — same rows, same distances, same sequence. This is deliberately
// stricter than the bulk suite's requireSameSet: parallel evaluation promises
// the *serial emission order*, not just the serial answer set.
func requireSameRows(t *testing.T, label string, want, got []QueryAnswer) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, serial baseline %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Dist != g.Dist || len(w.Nodes) != len(g.Nodes) {
			t.Fatalf("%s: row %d differs: serial %v d%d, parallel %v d%d",
				label, i, w.Nodes, w.Dist, g.Nodes, g.Dist)
		}
		for j := range w.Nodes {
			if w.Nodes[j] != g.Nodes[j] {
				t.Fatalf("%s: row %d differs: serial %v d%d, parallel %v d%d",
					label, i, w.Nodes, w.Dist, g.Nodes, g.Dist)
			}
		}
	}
}

// TestParallelMatchesSerialCorpus sweeps the Figure 4 corpus (plus join,
// alternation and constant-object shapes) across every backend and
// parallelism level: emission must be byte-identical to the serial run of the
// same configuration, in order, not just as a set.
func TestParallelMatchesSerialCorpus(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	var texts []string
	for _, q := range l4all.Queries() {
		texts = append(texts, q.Text)
	}
	texts = append(texts,
		"(?X) <- (?X, type, Librarians)",
		"(?X, ?Y) <- (?X, next+, ?Y)",
		"(?X, ?Z) <- (?X, next, ?Y), (?Y, job, ?Z)",
		"(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)",
	)
	for _, backend := range []Backend{BackendAuto, BackendRanked, BackendBulk} {
		for _, text := range texts {
			serial := collectAnswers(t, g, ont, text, Exact, Options{Backend: backend}, 0)
			for _, k := range parLevels {
				label := fmt.Sprintf("%q backend=%v parallel=%d", text, backend, k)
				got := collectAnswers(t, g, ont, text, Exact, Options{Backend: backend, Parallelism: k}, 0)
				requireSameRows(t, label, serial, got)
			}
		}
	}
}

// TestParallelFlexModesSerialFallback pins the fallback contract: APPROX and
// RELAX conjuncts (and the ψ-phase driver) are not shard-eligible, so a
// parallel execution must route them through the serial evaluator and emit
// the exact serial sequence — including cost-ranked order across distances.
func TestParallelFlexModesSerialFallback(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	texts := []string{
		"(?X) <- (Librarians, type-.job-.next, ?X)",
		"(?X, ?Y) <- (?X, job.type, ?Y)",
	}
	for _, mode := range []Mode{Approx, Relax} {
		for _, da := range []bool{false, true} {
			for _, text := range texts {
				base := Options{DistanceAware: da}
				serial := collectAnswers(t, g, ont, text, mode, base, 400)
				for _, k := range parLevels[1:] {
					label := fmt.Sprintf("%q mode=%v distaware=%v parallel=%d", text, mode, da, k)
					par := base
					par.Parallelism = k
					got := collectAnswers(t, g, ont, text, mode, par, 400)
					requireSameRows(t, label, serial, got)
				}
			}
		}
	}
}

// TestParallelFuzzDifferential hammers sharded ranked and parallel bulk
// evaluation with randomized path expressions over a seeded 512-node graph —
// large enough that the seed population clears the minimum shard size and the
// shard split genuinely engages. Every trial's parallel emission must replay
// the serial sequence byte for byte. The seed is fixed, so failures replay.
func TestParallelFuzzDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const (
		nodes  = 512
		edges  = 2200
		labels = 4
		trials = 18
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
		if trial%4 == 3 {
			// Constant-subject variant: a single seed, so sharding must
			// decline and fall back to one inner evaluator.
			text = fmt.Sprintf("(?X) <- (n%d, %s, ?X)", rng.Intn(nodes), e)
		}
		for _, backend := range []Backend{BackendRanked, BackendBulk} {
			serial := collectAnswers(t, g, nil, text, Exact, Options{Backend: backend}, 0)
			for _, k := range parLevels[1:] {
				label := fmt.Sprintf("trial %d %q backend=%v parallel=%d", trial, text, backend, k)
				got := collectAnswers(t, g, nil, text, Exact, Options{Backend: backend, Parallelism: k}, 0)
				requireSameRows(t, label, serial, got)
			}
		}
	}
}

// TestParallelShardStatsEngage proves the shard split actually runs (rather
// than the suite passing vacuously through serial fallbacks): a variable-
// subject exact query over a 512-node graph must report Parallelism and at
// least two shards in Stats, and still emit the serial sequence.
func TestParallelShardStatsEngage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewGraphBuilder()
	for i := 0; i < 1800; i++ {
		if err := b.AddTriple(
			fmt.Sprintf("n%d", rng.Intn(512)),
			fmt.Sprintf("p%d", rng.Intn(3)),
			fmt.Sprintf("n%d", rng.Intn(512)),
		); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	eng := NewEngine(g, nil)
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, p0+, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	run := func(eo ExecOptions) ([]QueryAnswer, Stats) {
		t.Helper()
		rows, err := pq.Exec(context.Background(), eo)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []QueryAnswer
		for {
			r, ok, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, QueryAnswer{Nodes: r.Nodes, Dist: int32(r.Dist)})
		}
		return out, rows.Stats()
	}

	serial, sst := run(ExecOptions{Backend: BackendRanked})
	if sst.Shards != 0 {
		t.Fatalf("serial Stats.Shards = %d, want 0", sst.Shards)
	}
	par, pst := run(ExecOptions{Backend: BackendRanked, Parallelism: 8})
	requireSameRows(t, "sharded ranked", serial, par)
	if pst.Parallelism != 8 {
		t.Fatalf("Stats.Parallelism = %d, want 8", pst.Parallelism)
	}
	if pst.Shards < 2 {
		t.Fatalf("Stats.Shards = %d, want >= 2 (shard split did not engage)", pst.Shards)
	}

	bSerial, _ := run(ExecOptions{Backend: BackendBulk})
	bPar, bst := run(ExecOptions{Backend: BackendBulk, Parallelism: 8})
	requireSameRows(t, "parallel bulk", bSerial, bPar)
	if bst.Shards < 2 {
		t.Fatalf("bulk Stats.Shards = %d, want >= 2 (worker fan-out did not engage)", bst.Shards)
	}
}

// TestParallelPooledRecycling is the pooled-parallel regression: shard
// evaluators check their state bundles back into a shared EvalPool on clean
// exhaustion, and recycled bundles must keep emitting the serial sequence on
// later parallel and serial executions alike.
func TestParallelPooledRecycling(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont)
	pq, err := eng.PrepareText("(?X, ?Y) <- (?X, job.type, ?Y)")
	if err != nil {
		t.Fatal(err)
	}
	collect := func(eo ExecOptions) []QueryAnswer {
		t.Helper()
		rows, err := pq.Exec(context.Background(), eo)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []QueryAnswer
		for {
			r, ok, err := rows.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, QueryAnswer{Nodes: r.Nodes, Dist: int32(r.Dist)})
		}
		return out
	}
	want := collect(ExecOptions{Backend: BackendRanked})
	pool := NewEvalPool(16)
	for rep := 0; rep < 6; rep++ {
		eo := ExecOptions{Backend: BackendRanked, Pool: pool, Parallelism: 8}
		if rep%2 == 1 {
			eo.Parallelism = 1 // interleave serial reps over the same pool
		}
		got := collect(eo)
		requireSameRows(t, fmt.Sprintf("pooled rep %d parallel=%d", rep, eo.Parallelism), want, got)
	}
	if ps := pool.Stats(); ps.Puts == 0 {
		t.Fatalf("pool saw no check-ins across parallel reps: %+v", ps)
	}
}
