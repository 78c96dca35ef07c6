package omega

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"omega/internal/l4all"
)

var updateWorkGolden = flag.Bool("update", false, "rewrite testdata/work_golden.json from this run")

const workGoldenPath = "testdata/work_golden.json"

// workCounters is what one execution did, in the units that repeat exactly on
// any machine: the evaluator's work counters, the row count and the rows per
// distance ("dist:rows" pairs, ascending).
type workCounters struct {
	Case         string `json:"case"`
	Rows         int    `json:"rows"`
	Hist         string `json:"hist"`
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
// (nodes and distance, rendered) and its accounted peak.
type workRun struct {
	counters workCounters
	rows     []string
	memPeak  int64
}

// sameWork reports whether two runs emitted the same rows in the same order
// and did the same work.
func (a workRun) sameWork(b workRun) bool {
	return a.counters == b.counters && slices.Equal(a.rows, b.rows)
}

func runWorkCase(t *testing.T, name string, pq *PreparedQuery, eo ExecOptions) workRun {
	t.Helper()
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		t.Fatalf("%s: Exec: %v", name, err)
	}
	defer rows.Close()
	var hist []int
	var emitted []string
	for {
		r, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("%s: Next: %v", name, err)
		}
		if !ok {
			break
		}
		for len(hist) <= r.Dist {
			hist = append(hist, 0)
		}
		hist[r.Dist]++
		emitted = append(emitted, fmt.Sprint(r.Nodes, r.Dist))
	}
	var hs []string
	for d, c := range hist {
		if c > 0 {
			hs = append(hs, fmt.Sprintf("%d:%d", d, c))
		}
	}
	st := rows.Stats()
	return workRun{
		counters: workCounters{
			Case: name, Rows: len(emitted), Hist: strings.Join(hs, " "),
			TuplesAdded: st.TuplesAdded, TuplesPopped: st.TuplesPopped,
			Deferred: st.Deferred, Reinjected: st.Reinjected,
			Phases: st.Phases, VisitedSize: st.VisitedSize,
		},
		rows:    emitted,
		memPeak: st.MemPeakBytes,
	}
}

// TestWorkGolden pins the work the ranked evaluator does against
// testdata/work_golden.json: a change that alters which tuples exist shows up
// as a diff of that file (go test -run TestWorkGolden -update rewrites it), a
// refactor must leave it untouched. Three groups of cases, all on the ranked
// backend:
//
//   - the L4All study queries on L1 × EXACT/APPROX/RELAX × plain/distance-aware
//     × top-100/exhaustive;
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
// previous tenant.
func TestWorkGolden(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	pool := NewEvalPool(1)
	var got workGolden
	run := func(name string, pq *PreparedQuery, eo ExecOptions) {
		fresh := runWorkCase(t, name, pq, eo)
		eo.Pool = pool
		if pooled := runWorkCase(t, name, pq, eo); !pooled.sameWork(fresh) {
			t.Errorf("%s: pooled state changed the rows or the work:\n pooled %+v\n fresh  %+v",
				name, pooled.counters, fresh.counters)
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
		{"plain", Options{Backend: BackendRanked}},
		{"distaware", Options{Backend: BackendRanked, DistanceAware: true}},
	}

	for _, v := range variants {
		eng := NewEngine(g, ont).WithOptions(v.opts)
		for _, q := range l4all.StudyQueries() {
			pq := prepare(eng, q.ID, q.Text)
			for _, mode := range []Mode{Exact, Approx, Relax} {
				for _, limit := range limits {
					name := fmt.Sprintf("%s/%v/%s/limit=%d", q.ID, mode, v.name, limit)
					run(name, pq, ExecOptions{Mode: ModeOverride(mode), Limit: limit})
				}
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

	if *updateWorkGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workGoldenPath, got.render(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", workGoldenPath, len(got.Counters))
		return
	}
	raw, err := os.ReadFile(workGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want workGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", workGoldenPath, err)
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
