// Command omega-bench regenerates the tables and figures of the paper's
// performance study (§4).
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"omega"
	"omega/internal/bench"
	"omega/internal/l4all"
	"omega/internal/yago"
)

var experiments = []struct {
	name  string
	title string
	run   func(cfg bench.Config) error
}{
	{"fig2", "Figure 2: characteristics of the L4All class hierarchies", func(c bench.Config) error { return bench.Fig2(os.Stdout) }},
	{"fig3", "Figure 3: characteristics of the L4All data graphs", func(c bench.Config) error { return bench.Fig3(os.Stdout, c) }},
	{"fig5", "Figure 5: results per query and data graph", func(c bench.Config) error { return bench.Fig5(os.Stdout, c) }},
	{"fig6", "Figure 6: execution time (ms), exact queries", func(c bench.Config) error { return bench.Fig6(os.Stdout, c) }},
	{"fig7", "Figure 7: execution time (ms), APPROX queries", func(c bench.Config) error { return bench.Fig7(os.Stdout, c) }},
	{"fig8", "Figure 8: execution time (ms), RELAX queries", func(c bench.Config) error { return bench.Fig8(os.Stdout, c) }},
	{"fig10", "Figure 10: query results, YAGO data graph", func(c bench.Config) error { return bench.Fig10(os.Stdout, c) }},
	{"fig11", "Figure 11: execution times (ms), YAGO data graph", func(c bench.Config) error { return bench.Fig11(os.Stdout, c) }},
	{"opt1", "§4.3 optimisation 1: retrieving answers by distance", func(c bench.Config) error { return bench.Opt1(os.Stdout, c) }},
	{"opt2", "§4.3 optimisation 2: replacing alternation by disjunction", func(c bench.Config) error { return bench.Opt2(os.Stdout, c) }},
}

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments (fig2,fig3,fig5..fig8,fig10,fig11,opt1,opt2) or 'all'")
		scalesFlag = flag.String("scales", "L1,L2,L3,L4", "L4All scales to include")
		yagoScale  = flag.Float64("yago-scale", 1.0, "YAGO size factor (1.0 ≈ 40k nodes)")
		runs       = flag.Int("runs", 5, "runs per query (first discarded)")
		maxAnswers = flag.Int("max-answers", 100, "answer budget for APPROX/RELAX")
		yagoBudget = flag.Int("yago-budget", 5_000_000, "tuple budget for YAGO APPROX runs (reproduces the paper's '?' failures; 0 = unlimited)")
		jsonDir    = flag.String("json", "", "directory to write per-experiment BENCH_<exp>.json files (timings, answers, tuples added/popped)")
	)
	// Shared execution knobs from the canonical registry: a backend or
	// parallelism pinned here applies engine-wide to every experiment that
	// does not pin its own.
	knobs := omega.BindExecFlags(flag.CommandLine, nil, "maxtuples", "backend", "parallel")
	flag.Parse()

	var scales []l4all.Scale
	for _, s := range strings.Split(*scalesFlag, ",") {
		found := false
		for _, sc := range l4all.Scales() {
			if strings.EqualFold(sc.String(), strings.TrimSpace(s)) {
				scales = append(scales, sc)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "omega-bench: unknown scale %q\n", s)
			os.Exit(2)
		}
	}

	ycfg := yago.DefaultConfig()
	if *yagoScale != 1.0 {
		ycfg = ycfg.Scaled(*yagoScale)
	}
	var eo omega.ExecOptions
	if err := knobs.Apply(&eo); err != nil {
		fmt.Fprintf(os.Stderr, "omega-bench: %v\n", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		Scales:     scales,
		Proto:      bench.Protocol{Runs: *runs, BatchSize: 10, MaxAnswers: *maxAnswers},
		Datasets:   bench.NewDatasets(ycfg),
		YagoBudget: *yagoBudget,
	}
	cfg.Opts.MaxTuples = eo.MaxTuples
	cfg.Opts.Backend = eo.Backend
	cfg.Opts.Parallelism = eo.Parallelism
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "omega-bench: -json: %v\n", err)
			os.Exit(1)
		}
		cfg.Recorder = bench.NewRecorder()
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, e := range experiments {
			want[e.name] = true
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}

	ran := 0
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		ecfg := cfg
		ecfg.Experiment = e.name
		fmt.Printf("== %s ==\n", e.title)
		if err := e.run(ecfg); err != nil {
			fmt.Fprintf(os.Stderr, "omega-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		if cfg.Recorder != nil {
			path := filepath.Join(*jsonDir, fmt.Sprintf("BENCH_%s.json", e.name))
			if err := cfg.Recorder.WriteExperiment(path, e.name); err != nil {
				fmt.Fprintf(os.Stderr, "omega-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "omega-bench: no experiment matched %q\n", *exp)
		os.Exit(2)
	}
}
