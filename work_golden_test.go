package omega

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"omega/internal/l4all"
)

var updateWorkGolden = flag.Bool("update", false, "rewrite testdata/work_golden.json and testdata/ablation.json from this run")

const workGoldenPath = "testdata/work_golden.json"

// workCounters is what one execution did, in the units that repeat exactly on
// any machine: the evaluator's work counters, the row count, the rows per
// distance ("dist:rows" pairs, ascending), the emission order (see
// orderHash), the answer set per distance level (see rankHash) and the size
// of the compiled automata the plan runs (states and transitions, summed over
// the plan's automata).
type workCounters struct {
	Case         string `json:"case"`
	Rows         int    `json:"rows"`
	Hist         string `json:"hist"`
	Order        string `json:"order"`
	Rank         string `json:"rank"`
	States       int    `json:"states"`
	Trans        int    `json:"trans"`
	TuplesAdded  int    `json:"tuples_added"`
	TuplesPopped int    `json:"tuples_popped"`
	Deferred     int    `json:"deferred"`
	Reinjected   int    `json:"reinjected"`
	Phases       int    `json:"phases"`
	VisitedSize  int    `json:"visited_size"`
}

// workMem is the accounted peak of one execution on fresh state. It lives in
// its own section because it is capacity-based: a change to how tables size
// themselves moves it and must move nothing in the counter section. (Slice
// growth is the toolchain's, so a Go upgrade may move it too; -update then
// shows by how much.)
type workMem struct {
	Case  string `json:"case"`
	Bytes int64  `json:"bytes"`
}

type workGolden struct {
	Counters []workCounters `json:"counters"`
	MemFresh []workMem      `json:"mem_peak_bytes_fresh"`
}

// frontierBound is what every golden and ablation run must hold its
// accounted peak under. It is ROADMAP item 14b's condition for the hard
// watermark to be the only memory bound; a case that needs more has to argue
// its way back in there.
const frontierBound = 64 << 20

// checkFrontierBound fails the test when a run's accounted peak is over
// frontierBound.
func checkFrontierBound(t *testing.T, name string, peak int64) {
	t.Helper()
	if peak > frontierBound {
		t.Errorf("%s: accounted peak %d bytes is over the 64 MiB frontier bound (ROADMAP item 14b)", name, peak)
	}
}

// render writes one case per line, so a change in work reads as a line diff.
func (wg *workGolden) render() []byte {
	return fmt.Appendf(nil, "{\n  \"counters\": [\n%s\n  ],\n  \"mem_peak_bytes_fresh\": [\n%s\n  ]\n}\n",
		jsonLines(wg.Counters), jsonLines(wg.MemFresh))
}

func jsonLines[T any](cases []T) string {
	lines := make([]string, len(cases))
	for i, c := range cases {
		js, _ := json.Marshal(c)
		lines[i] = "    " + string(js)
	}
	return strings.Join(lines, ",\n")
}

// workRun is one drained execution: its counters, its rows in emission order
// (nodes and distance, rendered) with their distances, and its accounted
// peak.
type workRun struct {
	counters workCounters
	rows     []string
	dists    []int
	memPeak  int64
}

// sameWork reports whether two runs emitted the same rows in the same order
// and did the same work.
func (a workRun) sameWork(b workRun) bool {
	return a.counters == b.counters && slices.Equal(a.rows, b.rows)
}

// drained is what one execution emitted before it ended: its rows in emission
// order (nodes and distance, rendered) and each row's distance, the rows per
// distance ("dist:rows" pairs, ascending), and the pops the evaluators had
// made when each row came out, read from Rows.Stats after every Next.
type drained struct {
	rows   []string
	dists  []int
	hist   string
	popsAt []int
	stats  Stats
	err    error
}

// orderHash pins an emission order in one column: the FNV-64a hash of the
// rendered rows, one per line, in the order they came out. Two runs with the
// same rows in a different order, ties included, hash differently.
func orderHash(rows []string) string {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rankHash pins the paper's contract rather than the tie order: which rows
// come out at each distance, not their order within it. It is the FNV-64a
// hash of every distance level's rows, sorted within the level, levels in
// ascending distance. A run that was cut short — a Limit reached, a budget
// hit — may have emitted only part of its last level, so that level stays out
// of the hash and only its row count follows it, as "<hash>+<rows>";
// checkCutLevels holds those rows to the run that was not cut. Two runs with
// the same rows per level and a different order within a level hash the
// same; orderHash tells them apart.
func rankHash(rows []string, dists []int, cut bool) string {
	lv := levels(rows, dists)
	ds := slices.Sorted(maps.Keys(lv))
	last := -1
	if cut && len(ds) > 0 {
		last = ds[len(ds)-1]
	}
	h := fnv.New64a()
	for _, d := range ds {
		if d == last {
			continue
		}
		fmt.Fprintf(h, "%d\n", d)
		for _, r := range lv[d] {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
	}
	if last >= 0 {
		return fmt.Sprintf("%016x+%d", h.Sum64(), len(lv[last]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cutShort reports whether a run that ended as end ("done" when the stream
// finished, else the budget it hit) after rows rows under limit may have
// emitted only part of its last distance level.
func cutShort(end string, rows, limit int) bool {
	return end != "done" || limit > 0 && rows == limit
}

// levels groups rows by distance, each level sorted.
func levels(rows []string, dists []int) map[int][]string {
	lv := map[int][]string{}
	for i, r := range rows {
		lv[dists[i]] = append(lv[dists[i]], r)
	}
	for _, l := range lv {
		slices.Sort(l)
	}
	return lv
}

// checkCutLevels holds a run that was cut short to the run of the same case
// that finished (TestLimitPrefixOfExhaustive's law, per level): every level
// below the cut run's last one holds exactly the finished run's rows at that
// distance, and the last one a subset of them.
func checkCutLevels(t *testing.T, name string, cutRows []string, cutDists []int, allRows []string, allDists []int) {
	t.Helper()
	cut, all := levels(cutRows, cutDists), levels(allRows, allDists)
	if len(cut) == 0 {
		return
	}
	last := slices.Max(slices.Collect(maps.Keys(cut)))
	for d, rows := range cut {
		switch {
		case d < last && !slices.Equal(rows, all[d]):
			t.Errorf("%s: level %d holds %d rows cut short, %d finished, or other rows", name, d, len(rows), len(all[d]))
		case d == last:
			for _, r := range rows {
				if _, ok := slices.BinarySearch(all[d], r); !ok {
					t.Errorf("%s: row %s of the last level cut short is not at that level when the run finishes", name, r)
					break
				}
			}
		}
	}
}

// automatonSize counts the states and compiled transitions of the automata
// the plan for eo runs, summed over them, as Explain lists them.
func automatonSize(t *testing.T, name string, pq *PreparedQuery, eo ExecOptions) (states, trans int) {
	t.Helper()
	plan, err := pq.Explain(eo)
	if err != nil {
		t.Fatalf("%s: Explain: %v", name, err)
	}
	for _, m := range automatonLine.FindAllStringSubmatch(plan, -1) {
		s, _ := strconv.Atoi(m[1])
		n, _ := strconv.Atoi(m[2])
		states, trans = states+s, trans+n
	}
	if states == 0 {
		t.Fatalf("%s: no automaton in the plan:\n%s", name, plan)
	}
	return states, trans
}

var automatonLine = regexp.MustCompile(`(\d+) states, (\d+) compiled transitions`)

// drain pulls rows until the stream ends or fails; err is the terminal error.
func drain(rows *Rows) drained {
	defer rows.Close()
	var out drained
	var hist []int
	for {
		r, ok, err := rows.Next()
		if err != nil {
			out.err = err
			break
		}
		if !ok {
			break
		}
		for len(hist) <= r.Dist {
			hist = append(hist, 0)
		}
		hist[r.Dist]++
		out.rows = append(out.rows, fmt.Sprint(r.Nodes, r.Dist))
		out.dists = append(out.dists, r.Dist)
		out.popsAt = append(out.popsAt, rows.Stats().TuplesPopped)
	}
	var hs []string
	for d, c := range hist {
		if c > 0 {
			hs = append(hs, fmt.Sprintf("%d:%d", d, c))
		}
	}
	out.hist = strings.Join(hs, " ")
	out.stats = rows.Stats()
	return out
}

func runWorkCase(t *testing.T, name string, pq *PreparedQuery, eo ExecOptions) workRun {
	t.Helper()
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		t.Fatalf("%s: Exec: %v", name, err)
	}
	d := drain(rows)
	if d.err != nil {
		t.Fatalf("%s: Next: %v", name, d.err)
	}
	st := d.stats
	states, trans := automatonSize(t, name, pq, eo)
	return workRun{
		counters: workCounters{
			Case: name, Rows: len(d.rows), Hist: d.hist, Order: orderHash(d.rows),
			Rank:   rankHash(d.rows, d.dists, cutShort("done", len(d.rows), eo.Limit)),
			States: states, Trans: trans,
			TuplesAdded: st.TuplesAdded, TuplesPopped: st.TuplesPopped,
			Deferred: st.Deferred, Reinjected: st.Reinjected,
			Phases: st.Phases, VisitedSize: st.VisitedSize,
		},
		rows:    d.rows,
		dists:   d.dists,
		memPeak: st.MemPeakBytes,
	}
}

// TestWorkGolden pins the work the ranked evaluator does against
// testdata/work_golden.json: a change that alters which tuples exist, the
// automata, or the order the rows come out in, shows up as a diff of that
// file (go test -run TestWorkGolden -update -v rewrites it and prints what
// moved: see writeGoldenReport), a refactor must leave it untouched. Three groups of cases, all on the ranked backend:
//
//   - the L4All study queries on L1 × EXACT/APPROX/RELAX/FLEX ×
//     plain/distance-aware × top-100/exhaustive, and Q11 and Q12 on L2 ×
//     APPROX/FLEX × plain/distance-aware × top-100;
//   - the ψ-phase driver over a decomposed alternation (Options.Disjunction):
//     the corpus's two top-level alternations, L4All Q7 on L1 and YAGO Q9, ×
//     APPROX/RELAX × plain/distance-aware × top-100/exhaustive;
//   - a two-conjunct RELAX join × plain/distance-aware × top-100/exhaustive,
//     whose counters are the join's fold over its conjuncts.
//
// Every case runs on fresh state and again on one pooled bundle shared by the
// whole corpus — so each pooled run inherits whatever the previous tenant grew
// — and both must emit the same rows and report the same counters; only the
// fresh run's accounted peak is recorded, since a pooled one depends on that
// previous tenant. That peak must be under frontierBound. A top-100 run that
// was cut at its limit must hold, per distance level, the rows of the same
// case run exhaustively (checkCutLevels).
//
// The order column may move in a change that keeps rows, hist and rank, and
// that change explains the move (DESIGN.md, "Order pin and rank pin").
func TestWorkGolden(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	pool := NewEvalPool(1)
	var got workGolden
	cut := map[string]workRun{} // top-100 runs cut at the limit, by case without the limit
	run := func(name string, pq *PreparedQuery, eo ExecOptions) {
		eo.Backend = BackendRanked
		fresh := runWorkCase(t, name, pq, eo)
		eo.Pool = pool
		if pooled := runWorkCase(t, name, pq, eo); !pooled.sameWork(fresh) {
			t.Errorf("%s: pooled state changed the rows or the work:\n pooled %+v\n fresh  %+v",
				name, pooled.counters, fresh.counters)
		}
		checkFrontierBound(t, name, fresh.memPeak)
		key := strings.TrimSuffix(name, fmt.Sprint(eo.Limit))
		switch {
		case cutShort("done", fresh.counters.Rows, eo.Limit):
			cut[key] = fresh
		case eo.Limit == 0:
			if c, ok := cut[key]; ok {
				checkCutLevels(t, name, c.rows, c.dists, fresh.rows, fresh.dists)
			}
		}
		got.Counters = append(got.Counters, fresh.counters)
		got.MemFresh = append(got.MemFresh, workMem{Case: name, Bytes: fresh.memPeak})
	}
	prepare := func(eng *Engine, id, text string) *PreparedQuery {
		pq, err := eng.PrepareText(text)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return pq
	}
	limits := []int{100, 0}
	variants := []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"distaware", Options{DistanceAware: true}},
	}

	for _, v := range variants {
		eng := NewEngine(g, ont).WithOptions(v.opts)
		for _, q := range l4all.StudyQueries() {
			pq := prepare(eng, q.ID, q.Text)
			for _, mode := range []Mode{Exact, Approx, Relax, Flex} {
				for _, limit := range limits {
					name := fmt.Sprintf("%s/%v/%s/limit=%d", q.ID, mode, v.name, limit)
					run(name, pq, ExecOptions{Mode: ModeOverride(mode), Limit: limit})
				}
			}
		}
	}

	// L2 rows for the two study queries whose APPROX/FLEX top-100 searches
	// spend the most pops before their first answer.
	g2, ont2 := datasets().L4All(l4all.L2)
	for _, v := range variants {
		eng := NewEngine(g2, ont2).WithOptions(v.opts)
		for _, id := range []string{"Q11", "Q12"} {
			pq := prepare(eng, id, l4allQueryText(t, id))
			for _, mode := range []Mode{Approx, Flex} {
				name := fmt.Sprintf("L2-%s/%v/%s/limit=100", id, mode, v.name)
				run(name, pq, ExecOptions{Mode: ModeOverride(mode), Limit: 100})
			}
		}
	}

	yg, yont := datasets().YAGO()
	for _, alt := range []struct {
		id, text string
		g        *Graph
		ont      *Ontology
	}{
		{"L4All-Q7", l4allQueryText(t, "Q7"), g, ont},
		{"YAGO-Q9", yagoQueryText(t, "Q9"), yg, yont},
	} {
		for _, v := range variants {
			opts := v.opts
			opts.Disjunction = true
			eng := NewEngine(alt.g, alt.ont).WithOptions(opts)
			pq := prepare(eng, alt.id, alt.text)
			for _, mode := range []Mode{Approx, Relax} {
				for _, limit := range limits {
					if alt.id == "L4All-Q7" && mode == Approx && limit == 0 {
						// A var–var APPROX conjunct enumerates every node pair:
						// 137 M tuples parked and 3.9 GB accounted on L1.
						continue
					}
					name := fmt.Sprintf("%s/%v/disjunction/%s/limit=%d", alt.id, mode, v.name, limit)
					run(name, pq, ExecOptions{Mode: ModeOverride(mode), Limit: limit})
				}
			}
		}
	}

	for _, v := range variants {
		eng := NewEngine(g, ont).WithOptions(v.opts)
		pq := prepare(eng, "join", "(?X, ?Y) <- (Librarians, type-, ?X), (?X, job-.next, ?Y)")
		for _, limit := range limits {
			name := fmt.Sprintf("join/%v/%s/limit=%d", Relax, v.name, limit)
			run(name, pq, ExecOptions{Mode: ModeOverride(Relax), Limit: limit})
		}
	}
	if s := pool.Stats(); s.Reuses == 0 || s.Puts != s.Gets {
		t.Fatalf("pool did not recycle cleanly: %+v", s)
	}

	raw, err := os.ReadFile(workGoldenPath)
	var want workGolden
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if *updateWorkGolden {
		// The report needs the file being replaced; a missing or unreadable
		// one reads as empty.
		writeGoldenReport(os.Stdout, workGoldenPath, workCounterNames, workGoldenCases(want), workGoldenCases(got))
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGoldenPath, got.render(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", workGoldenPath, len(got.Counters))
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (generate it with -update)", workGoldenPath, err)
	}
	if len(want.Counters) != len(got.Counters) || len(want.MemFresh) != len(got.MemFresh) {
		t.Fatalf("%s holds %d/%d cases, this run produced %d/%d (rerun with -update)",
			workGoldenPath, len(want.Counters), len(want.MemFresh), len(got.Counters), len(got.MemFresh))
	}
	for i := range got.Counters {
		if got.Counters[i] != want.Counters[i] {
			t.Errorf("work moved:\n got  %+v\n want %+v", got.Counters[i], want.Counters[i])
		}
		if got.MemFresh[i] != want.MemFresh[i] {
			t.Errorf("accounted peak moved: got %+v, want %+v", got.MemFresh[i], want.MemFresh[i])
		}
	}
}
