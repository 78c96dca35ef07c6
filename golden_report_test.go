package omega

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// This file writes the report -update prints when it rewrites a golden
// (testdata/work_golden.json, testdata/ablation.json): what moved between the
// file on disk and this run, in the terms a re-pinning change has to account
// for. It reads both versions and judges nothing: the tests' pass/fail logic
// is theirs alone. The report is deterministic, so it can be pasted into a
// change's notes as it stands.

// goldenCase is one golden line as the report reads it: its key, the mode and
// driver it ran under, how it ended, what it emitted, its counters (in the
// report's counter order) and its accounted peak.
type goldenCase struct {
	key, mode, driver string
	end               string // "done", or the budget that cut it
	rows              int
	hist, order, rank string
	counters          []int64
	peak              int64
}

func (c goldenCase) finished() bool { return c.end == "done" }

// status renders how the case ended, for the report's case lists.
func (c goldenCase) status() string {
	if c.finished() {
		return "finished"
	}
	return "budget-cut (" + c.end + ")"
}

// sameAnswers reports whether two versions of a case emitted the same rows,
// histogram, order and rank.
func (c goldenCase) sameAnswers(o goldenCase) bool {
	return c.rows == o.rows && c.hist == o.hist && c.order == o.order && c.rank == o.rank
}

// modeDriver splits a golden case name, <query>/<mode>/<driver...>/limit=<n>,
// into its mode and driver; an ablation case has no driver segment, and its
// setting stands in.
func modeDriver(name string) (mode, driver string) {
	parts := strings.Split(name, "/")
	if len(parts) < 3 {
		return name, ""
	}
	return parts[1], strings.Join(parts[2:len(parts)-1], "/")
}

// workGoldenCases reads a work golden for the report: the counter section and
// the accounted peaks, matched by case.
func workGoldenCases(wg workGolden) []goldenCase {
	peaks := map[string]int64{}
	for _, m := range wg.MemFresh {
		peaks[m.Case] = m.Bytes
	}
	out := make([]goldenCase, len(wg.Counters))
	for i, c := range wg.Counters {
		mode, driver := modeDriver(c.Case)
		out[i] = goldenCase{
			key: c.Case, mode: mode, driver: driver, end: "done",
			rows: c.Rows, hist: c.Hist, order: c.Order, rank: c.Rank,
			counters: []int64{int64(c.TuplesAdded), int64(c.TuplesPopped), int64(c.Deferred), int64(c.Reinjected),
				int64(c.Phases), int64(c.VisitedSize), int64(c.States), int64(c.Trans)},
			peak: peaks[c.Case],
		}
	}
	return out
}

var workCounterNames = []string{"tuples_added", "tuples_popped", "deferred", "reinjected", "phases", "visited_size", "states", "trans"}

// ablationCases reads the ablation matrix for the report; a row's key is its
// case and setting, and same_order rides with order.
func ablationCases(rows []ablationRow) []goldenCase {
	out := make([]goldenCase, len(rows))
	for i, r := range rows {
		mode, _ := modeDriver(r.Case)
		order := r.Order
		if !r.SameOrder {
			order += " (not the default's)"
		}
		out[i] = goldenCase{
			key: r.Case + " " + r.Setting, mode: mode, driver: r.Setting, end: r.End,
			rows: r.Rows, hist: r.Hist, order: order, rank: r.Rank,
			counters: []int64{int64(r.TuplesAdded), int64(r.TuplesPopped), int64(r.NeighborCalls),
				int64(r.FirstPops), int64(r.MaxGapPops)},
			peak: r.MemPeakBytes,
		}
	}
	return out
}

var ablationCounterNames = []string{"tuples_added", "tuples_popped", "neighbor_calls", "first_answer_pops", "max_gap_pops"}

// ablationTallies counts, per setting, the cases in which it is better and
// worse than the default (ablationCompare). rows holds each case's settings
// in order, the default first.
func ablationTallies(settings []ablationSetting, rows []ablationRow) (better, worse []int) {
	better, worse = make([]int, len(settings)), make([]int, len(settings))
	for i := 0; i+len(settings) <= len(rows); i += len(settings) {
		def := rows[i]
		for j := 1; j < len(settings); j++ {
			b, w := ablationCompare(def, rows[i+j])
			if b {
				better[j]++
			}
			if w {
				worse[j]++
			}
		}
	}
	return better, worse
}

// writeGoldenReport writes the diff between the golden on disk (before) and
// this run (after): the cases added, removed and moved, the moved ones by mode
// and driver, the sum of each counter and of the peaks over the moved cases,
// every case whose rows, hist, order or rank moved, every finished case whose
// counter or peak rose, and one verdict line per rule of DESIGN.md's "Order
// pin and rank pin".
func writeGoldenReport(w io.Writer, path string, names []string, before, after []goldenCase) {
	old := map[string]goldenCase{}
	for _, c := range before {
		old[c.key] = c
	}
	var added, removed []string
	var moved [][2]goldenCase
	seen := map[string]bool{}
	for _, c := range after {
		seen[c.key] = true
		o, ok := old[c.key]
		switch {
		case !ok:
			added = append(added, c.key)
		case !c.sameAnswers(o) || !slices.Equal(c.counters, o.counters) || c.peak != o.peak:
			moved = append(moved, [2]goldenCase{o, c})
		}
	}
	for _, c := range before {
		if !seen[c.key] {
			removed = append(removed, c.key)
		}
	}

	fmt.Fprintf(w, "golden report: %s\n", path)
	fmt.Fprintf(w, "cases: %d before, %d after; %d added, %d removed, %d moved\n",
		len(before), len(after), len(added), len(removed), len(moved))
	for _, k := range added {
		fmt.Fprintf(w, "  added: %s\n", k)
	}
	for _, k := range removed {
		fmt.Fprintf(w, "  removed: %s\n", k)
	}
	if len(moved) == 0 {
		return
	}

	byGroup := map[string]int{}
	for _, m := range moved {
		byGroup[m[1].mode+" "+m[1].driver]++
	}
	fmt.Fprintln(w, "moved by mode and driver:")
	for _, k := range slices.Sorted(maps.Keys(byGroup)) {
		fmt.Fprintf(w, "  %-40s %d\n", k, byGroup[k])
	}

	fmt.Fprintln(w, "sum over the moved cases, before -> after:")
	for i, n := range names {
		var b, a int64
		for _, m := range moved {
			b, a = b+m[0].counters[i], a+m[1].counters[i]
		}
		fmt.Fprintf(w, "  %-18s %d -> %d\n", n, b, a)
	}
	var pb, pa int64
	for _, m := range moved {
		pb, pa = pb+m[0].peak, pa+m[1].peak
	}
	fmt.Fprintf(w, "  %-18s %d -> %d\n", "peak_bytes", pb, pa)

	var orderOnly, rankFinished, rowsFinished, counterRose, peakRose int
	fmt.Fprintln(w, "rows, hist, order or rank moved:")
	answered := 0
	for _, m := range moved {
		o, c := m[0], m[1]
		if c.sameAnswers(o) {
			continue
		}
		answered++
		var what []string
		if o.rows != c.rows {
			what = append(what, fmt.Sprintf("rows %d -> %d", o.rows, c.rows))
		}
		if o.hist != c.hist {
			what = append(what, fmt.Sprintf("hist %q -> %q", o.hist, c.hist))
		}
		if o.order != c.order {
			what = append(what, fmt.Sprintf("order %s -> %s", o.order, c.order))
		}
		if o.rank != c.rank {
			what = append(what, fmt.Sprintf("rank %s -> %s", o.rank, c.rank))
		}
		fmt.Fprintf(w, "  %s [%s]: %s\n", c.key, c.status(), strings.Join(what, ", "))
		switch {
		case o.rows == c.rows && o.hist == c.hist && o.rank == c.rank:
			orderOnly++
		case c.finished() && o.finished():
			if o.rank != c.rank {
				rankFinished++
			}
			if o.rows != c.rows || o.hist != c.hist {
				rowsFinished++
			}
		}
	}
	if answered == 0 {
		fmt.Fprintln(w, "  none")
	}

	fmt.Fprintln(w, "finished cases whose counter or peak rose:")
	rose := 0
	for _, m := range moved {
		o, c := m[0], m[1]
		if !c.finished() || !o.finished() {
			continue
		}
		var what []string
		for i, n := range names {
			if c.counters[i] > o.counters[i] {
				what = append(what, fmt.Sprintf("%s %d -> %d", n, o.counters[i], c.counters[i]))
			}
		}
		if len(what) > 0 {
			counterRose++
		}
		if c.peak > o.peak {
			what = append(what, fmt.Sprintf("peak %d -> %d", o.peak, c.peak))
			peakRose++
		}
		if len(what) > 0 {
			rose++
			fmt.Fprintf(w, "  %s: %s\n", c.key, strings.Join(what, ", "))
		}
	}
	if rose == 0 {
		fmt.Fprintln(w, "  none")
	}

	fmt.Fprintln(w, "verdicts (DESIGN.md, \"Order pin and rank pin\"):")
	fmt.Fprintf(w, "  order moved with rank, rows and hist kept: %d cases (the change says why)\n", orderOnly)
	fmt.Fprintf(w, "  rank moved on a finished case (a changed answer set): %d\n", rankFinished)
	fmt.Fprintf(w, "  rows or hist moved on a finished case: %d\n", rowsFinished)
	fmt.Fprintf(w, "  counter rose on a finished case: %d\n", counterRose)
	fmt.Fprintf(w, "  peak rose on a finished case: %d\n", peakRose)
}

// writeTallyReport writes the ablation knob tallies of the golden on disk
// and of this run.
func writeTallyReport(w io.Writer, settings []ablationSetting, before, after []ablationRow) {
	bb, bw := ablationTallies(settings, before)
	ab, aw := ablationTallies(settings, after)
	fmt.Fprintln(w, "knob tallies, before -> after:")
	for i, s := range settings[1:] {
		fmt.Fprintf(w, "  %-20s better %d -> %d, worse %d -> %d\n", s.name, bb[i+1], ab[i+1], bw[i+1], aw[i+1])
	}
}
