package omega

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"omega/internal/l4all"
	"omega/internal/yago"
)

const ablationPath = "testdata/ablation.json"

// ablationRow is one case run under one setting, in counters that repeat
// exactly on any machine.
type ablationRow struct {
	Case    string `json:"case"`
	Setting string `json:"setting"`
	// End is how the run ended: "done", "tuple_budget" or "mem_budget".
	End           string `json:"end"`
	Rows          int    `json:"rows"`
	Hist          string `json:"hist"`
	Order         string `json:"order"` // see orderHash
	Rank          string `json:"rank"`  // see rankHash
	TuplesAdded   int    `json:"tuples_added"`
	TuplesPopped  int    `json:"tuples_popped"`
	NeighborCalls int    `json:"neighbor_calls"`
	MemPeakBytes  int64  `json:"mem_peak_bytes"`
	// FirstPops is the pops made before the first answer, MaxGapPops the most
	// pops made between two consecutive answers: the enumeration delay,
	// counted rather than timed.
	FirstPops  int `json:"first_answer_pops"`
	MaxGapPops int `json:"max_gap_pops"`
	// SameOrder reports whether the run emitted the default setting's rows in
	// the default's order.
	SameOrder bool `json:"same_order"`
}

// ablationSetting is one column of the matrix: the default options, or the
// default with one knob flipped.
type ablationSetting struct {
	name string
	opts Options
}

func ablationSettings() []ablationSetting {
	def := Options{}
	flip := func(name string, f func(*Options)) ablationSetting {
		o := def
		f(&o)
		return ablationSetting{name, o}
	}
	return []ablationSetting{
		{"default", def},
		flip("RareSide", func(o *Options) { o.RareSide = true }),
		flip("DistanceAware", func(o *Options) { o.DistanceAware = true }),
		flip("Disjunction", func(o *Options) { o.Disjunction = true }),
		flip("BatchSize=10", func(o *Options) { o.BatchSize = 10 }),
		flip("BatchSize=1000", func(o *Options) { o.BatchSize = 1000 }),
		flip("BatchSize=MaxInt32", func(o *Options) { o.BatchSize = math.MaxInt32 }),
	}
}

// ablationQuery is one row group of the matrix: a query text on a dataset.
type ablationQuery struct {
	id   string
	text string
	g    *Graph
	ont  *Ontology
}

func ablationQueries() []ablationQuery {
	g, ont := datasets().L4All(l4all.L1)
	yg, yont := datasets().YAGO()
	var qs []ablationQuery
	for _, q := range l4all.Queries() {
		qs = append(qs, ablationQuery{"L4All-" + q.ID, q.Text, g, ont})
	}
	for _, q := range yago.Queries() {
		qs = append(qs, ablationQuery{"YAGO-" + q.ID, q.Text, yg, yont})
	}
	return append(qs,
		ablationQuery{"join", "(?X, ?Y) <- (Librarians, type-, ?X), (?X, job-.next, ?Y)", g, ont},
		ablationQuery{"join-swapped", "(?X, ?Y) <- (?X, job-.next, ?Y), (Librarians, type-, ?X)", g, ont},
		ablationQuery{"join3", "(?X, ?Z) <- (?X, next, ?Y), (Software Professionals, type-.job-, ?X), (?Y, next, ?Z)", g, ont},
	)
}

// ablationExec bounds every run of the matrix. Without the two budgets an
// exhaustive APPROX var–var case under DistanceAware grows past the memory of
// a small machine.
func ablationExec(mode Mode, limit int) ExecOptions {
	return ExecOptions{Mode: ModeOverride(mode), Limit: limit, MaxTuples: 200_000, HardMemBytes: 256 << 20, Backend: BackendRanked}
}

func runAblationCase(t *testing.T, name string, s ablationSetting, q ablationQuery, eo ExecOptions) (ablationRow, drained) {
	t.Helper()
	pq, err := NewEngine(q.g, q.ont).WithOptions(s.opts).PrepareText(q.text)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, s.name, err)
	}
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		t.Fatalf("%s/%s: Exec: %v", name, s.name, err)
	}
	d := drain(rows)
	row := ablationRow{
		Case: name, Setting: s.name, End: "done", Rows: len(d.rows), Hist: d.hist, Order: orderHash(d.rows),
		TuplesAdded: d.stats.TuplesAdded, TuplesPopped: d.stats.TuplesPopped,
		NeighborCalls: d.stats.NeighborCalls, MemPeakBytes: d.stats.MemPeakBytes,
	}
	checkFrontierBound(t, name+"/"+s.name, row.MemPeakBytes)
	switch {
	case d.err == nil:
	case errors.Is(d.err, ErrTupleBudget):
		row.End = "tuple_budget"
	case errors.Is(d.err, ErrMemBudget):
		row.End = "mem_budget"
	default:
		t.Fatalf("%s/%s: Next: %v", name, s.name, d.err)
	}
	row.Rank = rankHash(d.rows, d.dists, cutShort(row.End, row.Rows, eo.Limit))
	for i, pops := range d.popsAt {
		if i == 0 {
			row.FirstPops = pops
		} else {
			row.MaxGapPops = max(row.MaxGapPops, pops-d.popsAt[i-1])
		}
	}
	return row, d
}

// ablationCompare judges a knob's run of one case against the default's run:
// better and worse may both hold, when one counter improves and another
// regresses.
func ablationCompare(def, knob ablationRow) (better, worse bool) {
	// differs is -1 when the knob's value is lower than the default's, +1 when
	// higher, and 0 unless they differ by more than 2% of the default's value
	// and by more than one unit.
	differs := func(d, k int64) int {
		diff := k - d
		if diff < 0 && -diff > 1 && -diff*50 > d {
			return -1
		}
		if diff > 0 && diff > 1 && diff*50 > d {
			return +1
		}
		return 0
	}
	switch defDone, knobDone := def.End == "done", knob.End == "done"; {
	case defDone && !knobDone:
		return false, true
	case !defDone && knobDone:
		return true, false
	case !defDone && !knobDone:
		// Both runs hit a budget: their counters measure the budget, not the
		// knob, so only how far each got before it counts.
		c := differs(int64(def.Rows), int64(knob.Rows))
		return c > 0, c < 0
	}
	for _, c := range []int{
		differs(int64(def.TuplesAdded), int64(knob.TuplesAdded)),
		differs(int64(def.TuplesPopped), int64(knob.TuplesPopped)),
		differs(int64(def.NeighborCalls), int64(knob.NeighborCalls)),
		differs(def.MemPeakBytes, knob.MemPeakBytes),
		differs(int64(def.FirstPops), int64(knob.FirstPops)),
		differs(int64(def.MaxGapPops), int64(knob.MaxGapPops)),
	} {
		better = better || c < 0
		worse = worse || c > 0
	}
	return better, worse
}

// TestAblationMatrix judges every on/off knob of Options on exact counters:
// 144 cases (L4All Q1–Q12 on L1, YAGO Q1–Q9 on the default configuration and
// three joins, each under EXACT, APPROX and RELAX at top-100 and exhaustive,
// on the ranked backend, each run bounded by 200 000 tuples and 256 MiB
// accounted) under the default options and under each knob flipped on its
// own. Each run records how it ended, its rows, per-distance histogram and
// emission order (orderHash), TuplesAdded, TuplesPopped, NeighborCalls, MemPeakBytes, the pops before the
// first answer and the most pops between two answers, and whether it emitted
// the default's rows in the default's order. testdata/ablation.json holds one
// line per case and setting (go test -run TestAblationMatrix -update rewrites
// it, and prints what moved: see writeGoldenReport); every run must repeat it
// exactly, and hold its accounted peak under frontierBound.
//
// In every case that both runs finish, the knob's histogram must equal the
// default's: a knob may change the work, never the answers.
//
// The decision rule, per knob against the default, case by case:
//   - a counter counts as better or worse only if it differs by more than 2%
//     (acct_peak_mb's bound in BENCHMARK.json) and by more than one unit;
//   - a run that hits its budget where the default's does not is worse, and
//     the reverse is better; when both hit it, only the rows each emitted
//     before it count;
//   - a knob that is better in no case is deleted, a knob that is worse in no
//     case becomes unconditional, and anything else is mixed and stays.
//
// The test fails when a knob it flips is better in no case or worse in no
// case: an on/off knob of Options earns its keep here or goes. The four knobs
// the matrix has convicted so far are deleted; EXPERIMENTS.md records their
// last rows.
func TestAblationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the ablation matrix runs 1 008 executions")
	}
	settings := ablationSettings()
	var got []ablationRow
	for _, q := range ablationQueries() {
		for _, mode := range []Mode{Exact, Approx, Relax} {
			cut := make([]*drained, len(settings)) // each setting's top-100 run, when cut short
			for _, limit := range []int{100, 0} {
				name := fmt.Sprintf("%s/%v/limit=%d", q.id, mode, limit)
				eo := ablationExec(mode, limit)
				var def ablationRow
				var defRows []string
				for i, s := range settings {
					row, d := runAblationCase(t, name, s, q, eo)
					switch {
					case limit > 0 && cutShort(row.End, row.Rows, limit):
						cut[i] = &d
					case limit == 0 && row.End == "done" && cut[i] != nil:
						checkCutLevels(t, name+"/"+s.name, cut[i].rows, cut[i].dists, d.rows, d.dists)
					}
					row.SameOrder = i == 0 || slices.Equal(d.rows, defRows)
					got = append(got, row)
					if i == 0 {
						def, defRows = row, d.rows
						continue
					}
					if def.End == "done" && row.End == "done" && row.Hist != def.Hist {
						t.Errorf("%s: %s changed the answers: hist %q, default %q", name, s.name, row.Hist, def.Hist)
					}
				}
			}
		}
	}
	cases := len(got) / len(settings)
	better, worse := ablationTallies(settings, got)
	for i, s := range settings[1:] {
		b, w := better[i+1], worse[i+1]
		t.Logf("%-20s better in %3d, worse in %3d of %d cases", s.name, b, w, cases)
		switch {
		case b == 0:
			t.Errorf("%s is better in no case: delete it", s.name)
		case w == 0:
			t.Errorf("%s is worse in no case: make it unconditional", s.name)
		}
	}

	lines := make([]string, len(got))
	for i, r := range got {
		js, _ := json.Marshal(r)
		lines[i] = string(js)
	}
	rendered := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
	raw, err := os.ReadFile(ablationPath)
	var want []ablationRow
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if *updateWorkGolden {
		// The report needs the file being replaced; a missing or unreadable
		// one reads as empty.
		writeGoldenReport(os.Stdout, ablationPath, ablationCounterNames, ablationCases(want), ablationCases(got))
		writeTallyReport(os.Stdout, settings, want, got)
		if err := os.WriteFile(ablationPath, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d rows)", ablationPath, len(got))
		return
	}
	if err != nil {
		t.Fatalf("%s: %v (generate it with -update)", ablationPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d rows, this run produced %d (rerun with -update)", ablationPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("ablation row moved:\n got  %+v\n want %+v", got[i], want[i])
		}
	}
}
