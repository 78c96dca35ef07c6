// Command benchmark is the Omega ledger: it generates the L4All data graph,
// boots a real omega-serve child per workload, drives it over a loopback
// socket, verifies every response against golden.json and prints the ledger's
// metrics by name with their units. benchmark/run.sh builds everything it
// needs and is the command BENCHMARK.json names; README.md has the protocol.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"omega/benchmark/stats"
)

func init() {
	// Pdeathsig on the server children is tied to the forking thread; main
	// keeps the process's first thread for good (see StartServer).
	runtime.LockOSThread()
}

// Config is one invocation.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool

	Scale  string        // L4All scale of the data graph
	Boots  int           // boot cycles: setup_s is read over them, and each carries a share of the window
	Warm   time.Duration // load a fresh server gets before it is measured, cold pass included
	BinDir string        // holds omega-serve, omega-gen and omega-layers
	Work   string        // parent of the run's scratch directory
	Golden string        // golden.json
	Out    string        // where trace_<workload>.json goes

	UpdateGolden bool
	Log          io.Writer // the human-readable report
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func main() {
	var cfg Config
	flag.StringVar(&cfg.Workload, "workload", "all", "approx_topk | relax_topk | exact_scan | mixed_open | all")
	flag.Int64Var(&cfg.Seed, "seed", 1, "orders the rotation, the mixed pattern and the walks through the constants")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.StringVar(&cfg.BinDir, "bin", "", "directory holding omega-serve, omega-gen and omega-layers")
	flag.StringVar(&cfg.Work, "work", "", "scratch parent directory (a per-run directory is made and removed inside it)")
	flag.StringVar(&cfg.Golden, "golden", "", "path of golden.json")
	flag.StringVar(&cfg.Out, "out", "", "directory for trace_<workload>.json")
	smoke := flag.Bool("smoke", false, "L1, one boot, 1 s windows, all four workloads, traced: a check of the harness, not a measurement")
	flag.BoolVar(&cfg.UpdateGolden, "update-golden", false, "rewrite golden.json from this build's answers instead of measuring")
	flag.Parse()
	cfg.Trace = *trace == 1
	cfg.Scale, cfg.Boots, cfg.Warm, cfg.Log = "L3", 3, 1500*time.Millisecond, os.Stdout
	if *smoke {
		cfg.smoke()
	}
	if cfg.BinDir == "" || cfg.Work == "" || cfg.Golden == "" || cfg.Out == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -bin, -work, -golden and -out are required (benchmark/run.sh sets them)")
		os.Exit(2)
	}
	// The generator is one P: its connections take turns, and the core it
	// does not use is the server's.
	runtime.GOMAXPROCS(1)
	pinGenerator()

	ok, err := Main(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// smoke shrinks the run to a harness check.
func (c *Config) smoke() {
	c.Workload, c.Scale, c.Boots, c.Seconds, c.Warm, c.Trace = "all", "L1", 1, 1, 200*time.Millisecond, true
}

// Main runs the configured workloads and prints one Result line per
// workload, the last line of output being the last workload's. ok is false
// when any operation failed.
func Main(cfg Config) (ok bool, err error) {
	names := []string{cfg.Workload}
	if cfg.Workload == "all" {
		names = workloadNames
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(cfg.Work, "run-")
	if err != nil {
		return false, err
	}
	h := &harness{cfg: cfg, work: work}
	defer h.cleanup()
	// SIGINT/SIGTERM: reap the child and remove the scratch directory (which
	// holds the server's spill directory) before going.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, open := <-sig; open {
			h.cleanup()
			os.Exit(130)
		}
	}()
	defer close(sig)

	if err := h.generate(); err != nil {
		return false, err
	}
	if cfg.UpdateGolden {
		return true, h.updateGolden()
	}
	all, err := LoadGolden(cfg.Golden)
	if err != nil {
		return false, err
	}
	golden := all[cfg.Scale]
	h.conditions()
	ok = true
	for _, name := range names {
		res, err := h.workload(name, golden)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(cfg.Log, "%s\n", line)
		ok = ok && res.Correct
	}
	return ok, nil
}

// harness holds the state one invocation shares across workloads. srv is the
// last server started; a stopped one stays there (Stop is idempotent), so
// main never finds a nil behind the signal handler's back.
type harness struct {
	cfg  Config
	work string // this run's scratch directory
	data string // the saved data graph inside it

	// mu orders the signal handler against the steps that start children or
	// write into the scratch directory: once cleanup has run, closed stays
	// set and start refuses, so nothing is re-created behind the handler.
	mu     sync.Mutex
	closed bool
	srv    *Server
}

// errInterrupted is what start returns once cleanup has run.
var errInterrupted = errors.New("interrupted")

// start runs step, which starts a child or writes scratch files, unless the
// harness is already cleaning up.
func (h *harness) start(step func() error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errInterrupted
	}
	return step()
}

// cleanup stops a running child and removes the scratch directory. It runs
// on every exit path main controls; Pdeathsig covers the others.
func (h *harness) cleanup() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	if h.srv != nil {
		h.srv.Stop()
	}
	os.RemoveAll(h.work)
}

func (h *harness) bin(name string) string { return filepath.Join(h.cfg.BinDir, name) }

// generate writes the data graph with omega-gen (GenerateL4All + SaveGraph /
// SaveOntology), once per invocation; every server child loads these files.
func (h *harness) generate() error {
	h.data = filepath.Join(h.work, "data")
	return h.start(func() error {
		out, err := exec.Command(h.bin("omega-gen"), "-data", "l4all:"+h.cfg.Scale, "-out", h.data).CombinedOutput()
		if err != nil {
			return fmt.Errorf("omega-gen: %v: %s", err, out)
		}
		return nil
	})
}

// conditions prints the fixed conditions of the run.
func (h *harness) conditions() {
	c := h.cfg
	fmt.Fprintf(c.Log, "# omega ledger: data l4all:%s  seed %d  window %gs  boots %d  warm-up %s  trace %v\n",
		c.Scale, c.Seed, c.Seconds, c.Boots, c.Warm, c.Trace)
	fmt.Fprintf(c.Log, "# server: GOMAXPROCS=%d GOGC=%s GOMEMLIMIT=%s -workers %d -max-limit 0 -hard-mem %d -timeout %s -janitor=false -quiet\n",
		serverProcs(), serverGOGC, serverGOMEMLIMIT, serverWorkers, serverHardMem, serverTimeout)
	fmt.Fprintf(c.Log, "# generator: GOMAXPROCS=1  %s %s/%s  %d CPUs  pinned %v (before each boot the generator takes the CPU a probe finds slowest, the server the rest)\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cpus.pinned)
}

// boot starts a server, runs the workload's cold pass against it, then warm
// load until the server has been under load for cfg.Warm (the cold pass
// counts), and returns the load, ready to be measured, with the seconds from
// exec to the end of the cold pass.
func (h *harness) boot(w *Workload, golden map[string]Shape, total *Window) (*Load, float64, error) {
	var started time.Time
	err := h.start(func() (err error) {
		h.srv, started, err = StartServer(h.bin("omega-serve"), h.data, h.work)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	l, err := NewLoad(w, h.srv, golden)
	if err != nil {
		return nil, 0, err
	}
	coldStart := time.Now()
	cold := l.ColdPass()
	setup := time.Since(started).Seconds()
	total.merge(cold)
	if rest := h.cfg.Warm - time.Since(coldStart); rest > 0 {
		warm := l.Run(rest)
		total.merge(warm)
		l.Calibrate(warm)
	} else {
		cold.Wall = time.Since(coldStart)
		l.Calibrate(cold)
	}
	return l, setup, nil
}

func (h *harness) stop(l *Load) {
	l.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.srv.Stop()
}

// workload measures one workload. Tracing off: cfg.Boots boot cycles, each
// measured for its share of the window, so that setup_s is read over several
// boots and every other figure is read over blocks spread across the whole
// run and across server processes. With -trace 1: one boot, an untraced
// window, a traced one and the in-process layer pass.
func (h *harness) workload(name string, golden map[string]Shape) (*Result, error) {
	cfg := h.cfg
	w, err := BuildWorkload(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	total := newWindow() // every operation of every phase, for attempted/failed
	res := &Result{Metrics: map[string]Value{}}
	if !cfg.Trace {
		var setups []float64
		win := newWindow()
		for b := 0; b < cfg.Boots; b++ {
			l, setup, err := h.boot(w, golden, total)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
			win.merge(l.Run(window / time.Duration(cfg.Boots)))
			h.stop(l)
		}
		total.merge(win)
		h.header(name, win)
		report(cfg.Log, res, endToEndDefs, endToEnd(w, setups, win), nil)
	} else {
		l, _, err := h.boot(w, golden, total)
		if err != nil {
			return nil, err
		}
		defer func() { h.stop(l) }()
		// The traced window and the layer pass share the run with the
		// untraced window the socket-side layer metrics come from.
		st0, err := h.srv.ReadStatsz()
		if err != nil {
			return nil, err
		}
		win := l.Run(window * 2 / 5)
		st1, err := h.srv.ReadStatsz()
		if err != nil {
			return nil, err
		}
		total.merge(win)
		h.header(name, win)
		layers, notes := socketLayers(win, st0, st1)
		l.Traced = true
		twin := l.Run(window * 3 / 10)
		total.merge(twin)
		v, used, n := stats.Tail(twin.Gaps, 99)
		layers["client.gap_p99_us"] = v
		notes = append(notes, tailNote{"client.gap_p99_us", used, n})
		if base := stats.GeoMeanOfClassQuartiles(win.Lat); base > 0 {
			layers["obs.trace_overhead_pct"] = (stats.GeoMeanOfClassQuartiles(twin.Lat)/base - 1) * 100
		}
		layers["core.join_self_ms"] = joinSelfMs(twin.Traces)
		layers["proc.peak_rss_mb"] = h.srv.PeakRSSMB()
		if err := h.layerPass(w, win, layers); err != nil {
			return nil, err
		}
		report(cfg.Log, res, perLayerDefs, layers, notes)
	}
	res.Attempted, res.Failed = total.Attempted, total.Failed
	res.Correct = total.Failed == 0 && total.Attempted > 0
	for _, e := range total.Errors {
		fmt.Fprintf(cfg.Log, "FAILED %s\n", e)
	}
	fmt.Fprintf(cfg.Log, "attempted %d  failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

func (h *harness) header(name string, win *Window) {
	fmt.Fprintf(h.cfg.Log, "\n## %s  (%d requests and %d rows in %.1fs, %d blocks; last boot: generator on CPU %d of %v, probe %.1f ms)\n",
		name, win.OK, win.Rows, win.Wall.Seconds(), len(win.Blocks), cpus.genCPU, cpus.allowed, cpus.probeMs)
}

// report prints the metrics of defs in order and stores them in res. A metric
// the workload does not exercise reads 0.
func report(out io.Writer, res *Result, defs []metricDef, vals map[string]float64, notes []tailNote) {
	note := map[string]tailNote{}
	for _, n := range notes {
		note[n.Name] = n
	}
	for _, d := range defs {
		v := vals[d.Name]
		res.Metrics[d.Name] = Value{v, d.Unit}
		extra := ""
		if n, ok := note[d.Name]; ok {
			extra = fmt.Sprintf("   (p%g of %d samples)", n.Used, n.N)
			if n.Used == 0 {
				extra = fmt.Sprintf("   (median: %d samples carry no tail)", n.N)
			}
		}
		fmt.Fprintf(out, "%-32s %14.4f %-7s%s\n", d.Name, v, d.Unit, extra)
	}
}

// layerOutput is what omega-layers prints.
type layerOutput struct {
	Metrics   map[string]float64 `json:"metrics"`
	HandlerMs map[string]float64 `json:"handler_ms"` // in-process handler latency, class lower quartiles
}

// layerPass runs the in-process traced pass (benchmark/layers) over the
// workload's requests and folds its metrics into layers.
func (h *harness) layerPass(w *Workload, win *Window, layers map[string]float64) error {
	reqs := w.Distinct()
	if w.Open {
		reqs = w.Rotation[:3*w.Pattern] // a sample of the mix: three patterns
	}
	reqFile := filepath.Join(h.work, "requests.json")
	b, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(h.cfg.Out, 0o755); err != nil {
		return err
	}
	cmd := exec.Command(h.bin("omega-layers"),
		"-graph", filepath.Join(h.data, "graph.txt"),
		"-ontology", filepath.Join(h.data, "ontology.txt"),
		"-requests", reqFile,
		"-seed", fmt.Sprint(h.cfg.Seed),
		"-seconds", fmt.Sprint(h.cfg.Seconds/4),
		"-out", filepath.Join(h.cfg.Out, "trace_"+w.Name+".json"),
	)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs()), "GOGC="+serverGOGC, "GOMEMLIMIT="+serverGOMEMLIMIT)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err = h.start(func() error {
		if err := os.WriteFile(reqFile, b, 0o644); err != nil {
			return err
		}
		return startPinned(cmd.Start)
	})
	if err != nil {
		return fmt.Errorf("omega-layers: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("omega-layers: %w", err)
	}
	out := stdout.Bytes()
	var lo layerOutput
	if err := json.Unmarshal(out, &lo); err != nil {
		return fmt.Errorf("omega-layers output: %w", err)
	}
	for k, v := range lo.Metrics {
		layers[k] = v
	}
	// The loopback floor: what a request costs on the socket beyond what the
	// same handler costs called in-process, averaged over classes.
	var sum float64
	var n int
	for class, inproc := range lo.HandlerMs {
		if xs := win.Lat[class]; len(xs) > 0 {
			sum += (stats.LowerQuartile(xs) - inproc) * 1e3
			n++
		}
	}
	if n > 0 {
		layers["client.socket_us_per_req"] = sum / float64(n)
	}
	return nil
}

// updateGolden boots one server and records the shape of every distinct
// request of every workload, at the configured scale, into golden.json.
func (h *harness) updateGolden() error {
	all, err := LoadGolden(h.cfg.Golden)
	if errors.Is(err, os.ErrNotExist) {
		all, err = Golden{}, nil
	}
	if err != nil {
		return err
	}
	err = h.start(func() (err error) {
		h.srv, _, err = StartServer(h.bin("omega-serve"), h.data, h.work)
		return err
	})
	if err != nil {
		return err
	}
	c, err := Dial(h.srv.Addr)
	if err != nil {
		return err
	}
	defer c.Close()
	shapes := map[string]Shape{}
	for _, name := range workloadNames {
		// Seeds only reorder the closed loops; the mix draws its constants
		// from fixed pools, all of which one rotation visits.
		w, err := BuildWorkload(name, h.cfg.Scale, 1)
		if err != nil {
			return err
		}
		for _, r := range w.Distinct() {
			// Twice: an answer that differs between two executions of one
			// request cannot be pinned.
			a, err := c.Query(r.wire)
			if err != nil {
				return fmt.Errorf("%s: %w", r.Key(), err)
			}
			b, err := c.Query(r.wire)
			if err != nil {
				return fmt.Errorf("%s: %w", r.Key(), err)
			}
			if err := Check(a.Shape, b.Shape, r.Limit == 0); err != nil {
				return fmt.Errorf("%s: not repeatable: %w", r.Key(), err)
			}
			if r.Limit != 0 {
				a.Shape.Hash = 0 // ties at the cut-off distance may fall either way
			}
			shapes[r.Key()] = a.Shape
		}
	}
	all[h.cfg.Scale] = shapes
	fmt.Fprintf(h.cfg.Log, "golden: %d request shapes at %s\n", len(shapes), h.cfg.Scale)
	return all.Save(h.cfg.Golden)
}
