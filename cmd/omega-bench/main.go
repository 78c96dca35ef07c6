// Command omega-bench regenerates the tables and figures of the paper's
// performance study (§4) from live runs, through the same public API
// (package omega) every other client uses. The measurement protocol mirrors
// §4.1: each query is run five times with the first run discarded as cache
// warm-up; exact queries run to completion; APPROX and RELAX queries retrieve
// the top 100 answers. A run is timed from Prepare, through Exec, to its last
// answer.
//
// Usage:
//
//	omega-bench -exp all                         # everything (L1..L4 + YAGO)
//	omega-bench -exp fig5 -scales L1,L2          # one experiment, small scales
//	omega-bench -exp fig10,fig11 -yago-scale 0.2
//
// Experiments: fig2 fig3 fig5 fig6 fig7 fig8 fig10 fig11 opt1 opt2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"omega"
	"omega/internal/l4all"
	"omega/internal/yago"
)

var experiments = []struct {
	name  string
	title string
	run   func(b *bench, w io.Writer) error
}{
	{"fig2", "Figure 2: characteristics of the L4All class hierarchies", func(_ *bench, w io.Writer) error { return fig2(w) }},
	{"fig3", "Figure 3: characteristics of the L4All data graphs", (*bench).fig3},
	{"fig5", "Figure 5: results per query and data graph", (*bench).fig5},
	{"fig6", "Figure 6: execution time (ms), exact queries", func(b *bench, w io.Writer) error { return b.figTimes(w, omega.Exact) }},
	{"fig7", "Figure 7: execution time (ms), APPROX queries", func(b *bench, w io.Writer) error { return b.figTimes(w, omega.Approx) }},
	{"fig8", "Figure 8: execution time (ms), RELAX queries", func(b *bench, w io.Writer) error { return b.figTimes(w, omega.Relax) }},
	{"fig10", "Figure 10: query results, YAGO data graph", (*bench).fig10},
	{"fig11", "Figure 11: execution times (ms), YAGO data graph", (*bench).fig11},
	{"opt1", "§4.3 optimisation 1: retrieving answers by distance", (*bench).opt1},
	{"opt2", "§4.3 optimisation 2: replacing alternation by disjunction", (*bench).opt2},
}

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments (fig2,fig3,fig5..fig8,fig10,fig11,opt1,opt2) or 'all'")
		scalesFlag = flag.String("scales", "L1,L2,L3,L4", "L4All scales to include")
		yagoScale  = flag.Float64("yago-scale", 1.0, "YAGO size factor (1.0 ≈ 40k nodes)")
		runs       = flag.Int("runs", 5, "runs per query (first discarded)")
		maxAnswers = flag.Int("max-answers", 100, "answer budget for APPROX/RELAX")
		yagoBudget = flag.Int("yago-budget", 5_000_000, "tuple budget for YAGO APPROX runs (reproduces the paper's '?' failures; 0 = unlimited)")
	)
	// Shared execution knobs from the canonical registry, applied to every
	// run. The figures measure the ranked GetNext machinery, so the backend
	// defaults to ranked rather than auto.
	knobs := omega.BindExecFlags(flag.CommandLine, map[string]string{"backend": "ranked"}, "maxtuples", "backend", "parallel")
	flag.Parse()

	b := &bench{
		proto:      protocol{runs: *runs, maxAnswers: *maxAnswers},
		yagoBudget: *yagoBudget,
		yagoCfg:    yago.DefaultConfig(),
		l4:         map[l4all.Scale]*omega.Engine{},
	}
	if b.proto.runs <= 1 {
		b.proto.runs = 5
	}
	if b.proto.maxAnswers <= 0 {
		b.proto.maxAnswers = 100
	}
	if *yagoScale != 1.0 {
		b.yagoCfg = b.yagoCfg.Scaled(*yagoScale)
	}
	if err := knobs.Apply(&b.eo); err != nil {
		fmt.Fprintf(os.Stderr, "omega-bench: %v\n", err)
		os.Exit(2)
	}
	for _, s := range strings.Split(*scalesFlag, ",") {
		found := false
		for _, sc := range l4all.Scales() {
			if strings.EqualFold(sc.String(), strings.TrimSpace(s)) {
				b.scales = append(b.scales, sc)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "omega-bench: unknown scale %q\n", s)
			os.Exit(2)
		}
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ran := 0
	for _, e := range experiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		fmt.Printf("== %s ==\n", e.title)
		if err := e.run(b, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "omega-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "omega-bench: no experiment matched %q\n", *exp)
		os.Exit(2)
	}
}

// protocol is the §4.1 measurement protocol.
type protocol struct {
	runs       int // total runs; the first is discarded
	maxAnswers int // answer budget for APPROX/RELAX
}

// query is one study query; both workloads' query lists convert to it.
type query struct{ ID, Text string }

// bench is the study's configuration plus an engine over each generated
// dataset, memoised because every experiment shares them.
type bench struct {
	scales     []l4all.Scale
	proto      protocol
	eo         omega.ExecOptions // backend, parallelism and tuple budget of every run
	yagoBudget int               // tuple budget of the YAGO APPROX runs (0 = eo's)
	yagoCfg    yago.Config

	l4 map[l4all.Scale]*omega.Engine
	yg *omega.Engine
}

func (b *bench) l4all(s l4all.Scale) *omega.Engine {
	if b.l4[s] == nil {
		b.l4[s] = omega.NewEngine(l4all.Generate(s))
	}
	return b.l4[s]
}

func (b *bench) yago() *omega.Engine {
	if b.yg == nil {
		b.yg = omega.NewEngine(yago.Generate(b.yagoCfg))
	}
	return b.yg
}

// yagoExec is the execution knobs of a YAGO run: APPROX runs under the tuple
// budget, reproducing the paper's out-of-memory '?' entries.
func (b *bench) yagoExec(mode omega.Mode) omega.ExecOptions {
	eo := b.eo
	if mode == omega.Approx && b.yagoBudget > 0 {
		eo.MaxTuples = b.yagoBudget
	}
	return eo
}

func queries[Q ~struct{ ID, Text string }](qs []Q) []query {
	out := make([]query, len(qs))
	for i, q := range qs {
		out[i] = query(q)
	}
	return out
}

func l4Study() []query   { return queries(l4all.StudyQueries()) }
func yagoStudy() []query { return queries(yago.StudyQueries()) }

// measurement is the outcome of running one query variant.
type measurement struct {
	answers int
	byDist  map[int]int   // answer count per non-zero distance
	total   time.Duration // average time per counted run, Prepare to last answer
	failed  bool          // tuple budget exhausted (the paper's '?')
	// Evaluation counters of the last run (deterministic across runs).
	popped, phases, reinjected int
}

// distBreakdown renders the Figure 5-style per-distance annotation, e.g.
// "1 (32) 2 (67)".
func (m measurement) distBreakdown() string {
	if m.failed {
		return "(budget)"
	}
	dists := make([]int, 0, len(m.byDist))
	for d := range m.byDist {
		dists = append(dists, d)
	}
	sort.Ints(dists)
	parts := make([]string, len(dists))
	for i, d := range dists {
		parts[i] = fmt.Sprintf("%d (%d)", d, m.byDist[d])
	}
	return strings.Join(parts, " ")
}

// run executes one query variant under the protocol: every conjunct in mode,
// prepared on eng with opts and executed with eo.
func run(eng *omega.Engine, text string, mode omega.Mode, opts omega.Options, eo omega.ExecOptions, proto protocol) (measurement, error) {
	q, err := omega.ParseQuery(text)
	if err != nil {
		return measurement{}, err
	}
	for i := range q.Conjuncts {
		q.Conjuncts[i].Mode = mode
	}
	eng = eng.WithOptions(opts)
	limit := proto.maxAnswers
	if mode == omega.Exact {
		limit = 0
	}
	var m measurement
	var sum time.Duration
	for i := 0; i < proto.runs; i++ {
		start := time.Now()
		pq, err := eng.Prepare(q)
		if err != nil {
			return measurement{}, err
		}
		rows, err := pq.Exec(context.Background(), eo)
		if err != nil {
			return measurement{}, err
		}
		m = measurement{byDist: map[int]int{}}
		for limit == 0 || m.answers < limit {
			row, ok, err := rows.Next()
			if errors.Is(err, omega.ErrTupleBudget) {
				m.failed = true
				break
			}
			if err != nil {
				return measurement{}, err
			}
			if !ok {
				break
			}
			m.answers++
			if row.Dist > 0 {
				m.byDist[row.Dist]++
			}
		}
		elapsed := time.Since(start)
		s := rows.Stats()
		m.popped, m.phases, m.reinjected = s.TuplesPopped, s.Phases, s.Reinjected
		if err := rows.Close(); err != nil {
			return measurement{}, err
		}
		if i > 0 { // run 1 is the cache warm-up
			sum += elapsed
			m.total = sum / time.Duration(i)
		}
		if m.failed {
			// A budget failure repeats identically on every run; the paper
			// reports it as '?' with no timing.
			break
		}
	}
	return m, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6) }

func countCell(m measurement) string { return fmt.Sprint(m.answers) }

func timeCell(m measurement) string { return ms(m.total) }

func modeName(m omega.Mode) string {
	if m == omega.Exact {
		return "Exact"
	}
	return m.String()
}

var studyModes = []omega.Mode{omega.Exact, omega.Approx, omega.Relax}

// row is one row of a figure table: the dataset and mode every query of the
// row runs in, and whether a per-distance breakdown row follows it.
type row struct {
	label     string
	eng       *omega.Engine
	mode      omega.Mode
	eo        omega.ExecOptions
	proto     protocol
	breakdown bool
}

// table renders the shape Figures 5–8, 10 and 11 share: one column per query,
// one row per scale or mode whose cells are value(measurement) — '?' for a
// run that exhausted its tuple budget — and, under a row that asks for it, the
// per-distance breakdown of every cell.
func table(w io.Writer, corner string, qs []query, rows []row, value func(measurement) string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, corner)
	for _, q := range qs {
		fmt.Fprintf(tw, "\t%s", q.ID)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprint(tw, r.label)
		breakdowns := make([]string, 0, len(qs))
		for _, q := range qs {
			m, err := run(r.eng, q.Text, r.mode, omega.Options{}, r.eo, r.proto)
			if err != nil {
				return fmt.Errorf("%s: %w", q.ID, err)
			}
			cell := "?"
			if !m.failed {
				cell = value(m)
			}
			fmt.Fprintf(tw, "\t%s", cell)
			breakdowns = append(breakdowns, m.distBreakdown())
		}
		fmt.Fprintln(tw)
		if r.breakdown {
			fmt.Fprint(tw, " ")
			for _, s := range breakdowns {
				fmt.Fprintf(tw, "\t%s", s)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}

// fig2 renders Figure 2: characteristics of the L4All class hierarchies.
func fig2(w io.Writer) error {
	o := l4all.Ontology()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Class hierarchy\tDepth\tAverage fan-out")
	for _, root := range []string{"Episode", "Subject", "Occupation", "Education Qualification Level", "Industry Sector"} {
		s := o.ClassHierarchyStats(root)
		fmt.Fprintf(tw, "%s\t%d\t%.2f\n", root, s.Depth, s.AvgFanOut)
	}
	return tw.Flush()
}

// fig3 renders Figure 3: characteristics of the L4All data graphs.
func (b *bench) fig3(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	line := func(label string, cell func(l4all.Scale) any) {
		fmt.Fprint(tw, label)
		for _, s := range b.scales {
			fmt.Fprintf(tw, "\t%v", cell(s))
		}
		fmt.Fprintln(tw)
	}
	line(" ", func(s l4all.Scale) any { return s })
	line("Timelines", func(s l4all.Scale) any { return s.Timelines() })
	line("Nodes", func(s l4all.Scale) any { return b.l4all(s).Graph().NumNodes() })
	line("Edges", func(s l4all.Scale) any { return b.l4all(s).Graph().NumEdges() })
	return tw.Flush()
}

// fig5 renders Figure 5: result counts (with per-distance breakdowns) for the
// study queries on each data graph.
func (b *bench) fig5(w io.Writer) error {
	var rows []row
	for _, s := range b.scales {
		for _, mode := range studyModes {
			rows = append(rows, row{
				label: fmt.Sprintf("%s: %s", s, modeName(mode)), eng: b.l4all(s), mode: mode, eo: b.eo,
				proto: protocol{runs: 2, maxAnswers: b.proto.maxAnswers}, breakdown: mode != omega.Exact,
			})
		}
	}
	return table(w, " ", l4Study(), rows, countCell)
}

// figTimes renders Figures 6–8: average execution time (ms) per query and
// data graph for one mode.
func (b *bench) figTimes(w io.Writer, mode omega.Mode) error {
	var rows []row
	for _, s := range b.scales {
		rows = append(rows, row{label: s.String(), eng: b.l4all(s), mode: mode, eo: b.eo, proto: b.proto})
	}
	return table(w, "ms", l4Study(), rows, timeCell)
}

// fig10 renders Figure 10: YAGO result counts, with APPROX under the tuple
// budget that reproduces the '?' failures of the paper for queries 4 and 5.
func (b *bench) fig10(w io.Writer) error {
	var rows []row
	for _, mode := range studyModes {
		rows = append(rows, row{
			label: modeName(mode), eng: b.yago(), mode: mode, eo: b.yagoExec(mode),
			proto: protocol{runs: 2, maxAnswers: b.proto.maxAnswers}, breakdown: mode != omega.Exact,
		})
	}
	return table(w, " ", yagoStudy(), rows, countCell)
}

// fig11 renders Figure 11: YAGO execution times (ms), under Figure 10's
// budget.
func (b *bench) fig11(w io.Writer) error {
	var rows []row
	for _, mode := range studyModes {
		rows = append(rows, row{label: modeName(mode), eng: b.yago(), mode: mode, eo: b.yagoExec(mode), proto: b.proto})
	}
	return table(w, "ms", yagoStudy(), rows, timeCell)
}

// opt1 renders the §4.3 distance-aware comparison: APPROX queries plain, with
// per-phase restarting retrieval by distance (the paper's description), and
// with the resumable incremental driver. Per target it also reports the
// ψ-phase count, the deferred tuples re-injected by the incremental driver,
// and the tuples popped by each distance-aware variant — phase k of a restart
// redoes all the work of phases 1..k−1, so popped(restart)/popped(incremental)
// grows with the phase count.
func (b *bench) opt1(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tdataset\tplain ms\tdistance-aware restart ms\tdistance-aware incremental ms\tphases\treinjected\tpopped restart\tpopped incr\tincr speed-up")
	type target struct {
		dataset string
		eng     *omega.Engine
		q       query
	}
	var targets []target
	scale := b.scales[len(b.scales)-1]
	for _, q := range l4Study() {
		if q.ID == "Q3" || q.ID == "Q9" || q.ID == "Q8" {
			targets = append(targets, target{scale.String(), b.l4all(scale), q})
		}
	}
	for _, q := range yagoStudy() {
		if q.ID == "Q2" || q.ID == "Q3" {
			targets = append(targets, target{"YAGO", b.yago(), q})
		}
	}
	restart := omega.Options{DistanceAware: true, DistanceRestart: true}
	incremental := omega.Options{DistanceAware: true}
	for _, t := range targets {
		m1, err := run(t.eng, t.q.Text, omega.Approx, omega.Options{}, b.eo, b.proto)
		if err != nil {
			return err
		}
		m2, err := run(t.eng, t.q.Text, omega.Approx, restart, b.eo, b.proto)
		if err != nil {
			return err
		}
		m3, err := run(t.eng, t.q.Text, omega.Approx, incremental, b.eo, b.proto)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%.2fx\n",
			t.q.ID, t.dataset, ms(m1.total), ms(m2.total), ms(m3.total),
			m3.phases, m3.reinjected, m2.popped, m3.popped, float64(m2.total)/float64(m3.total))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Exhaustive multi-phase comparison: every answer within ψ ≤ 3φ is
	// drained, so each restart phase redoes all the work of its predecessors
	// while the incremental driver pops every tuple once. This is the regime
	// the resumable evaluator exists for; the top-100 protocol above stops too
	// early for the re-pop blowup to dominate.
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "exhaust ψ≤3φ\tdataset\tdistance-aware restart ms\tdistance-aware incremental ms\tphases\tpopped restart\tpopped incr\tincr speed-up")
	exhaust := b.proto
	exhaust.maxAnswers = 1 << 30
	restart.MaxPsi, incremental.MaxPsi = 3, 3
	for _, t := range targets {
		if t.dataset == "YAGO" {
			continue // bounded-ψ exhaustion on YAGO explodes; L4All suffices
		}
		m1, err := run(t.eng, t.q.Text, omega.Approx, restart, b.eo, exhaust)
		if err != nil {
			return err
		}
		m2, err := run(t.eng, t.q.Text, omega.Approx, incremental, b.eo, exhaust)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%d\t%.2fx\n",
			t.q.ID, t.dataset, ms(m1.total), ms(m2.total),
			m2.phases, m1.popped, m2.popped, float64(m1.total)/float64(m2.total))
	}
	return tw.Flush()
}

// opt2 renders the §4.3 alternation-by-disjunction comparison on YAGO Q9.
func (b *bench) opt2(w io.Writer) error {
	var q9 query
	for _, q := range yagoStudy() {
		if q.ID == "Q9" {
			q9 = q
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tms\tanswers")
	for _, s := range []struct {
		name string
		opts omega.Options
	}{
		{"single automaton", omega.Options{DistanceAware: true}},
		{"disjunction of sub-automata", omega.Options{Disjunction: true}},
	} {
		m, err := run(b.yago(), q9.Text, omega.Approx, s.opts, b.eo, b.proto)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\n", s.name, ms(m.total), m.answers)
	}
	return tw.Flush()
}
