package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// schedule is the byte stream a workload puts on the wire, in order.
func schedule(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := BuildWorkload(name, "L3", seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range w.Rotation {
		buf.Write(r.wire)
	}
	return buf.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, b := schedule(t, name, 7), schedule(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two request schedules", name)
		}
		if c := schedule(t, name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request schedule", name)
		}
	}
}

// Every seed must offer the same set of requests, or golden.json (written
// from seed 1) would not cover a run and two seeds would not be comparable.
func TestSeedsShareTheRequestSet(t *testing.T) {
	for _, name := range workloadNames {
		keys := func(seed int64) map[string]bool {
			w, err := BuildWorkload(name, "L3", seed)
			if err != nil {
				t.Fatal(err)
			}
			m := map[string]bool{}
			for _, r := range w.Distinct() {
				m[r.Key()] = true
			}
			return m
		}
		a, b := keys(1), keys(99)
		if len(a) != len(b) {
			t.Errorf("%s: %d distinct requests at seed 1, %d at seed 99", name, len(a), len(b))
		}
		for k := range a {
			if !b[k] {
				t.Errorf("%s: %q is sent at seed 1 only", name, k)
			}
		}
	}
}

func TestMixedWorkloadShape(t *testing.T) {
	w, err := BuildWorkload("mixed_open", "L3", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Open || w.Conns != 2 || w.Rate != mixRate || w.Pattern != 20 {
		t.Fatalf("open=%v conns=%d rate=%v pattern=%d", w.Open, w.Conns, w.Rate, w.Pattern)
	}
	if n := len(w.Distinct()); n <= 128 {
		t.Errorf("%d distinct texts: the mix must overflow the 128-entry plan cache", n)
	}
	// Every pattern of the rotation has the same classes in the same slots.
	for i, r := range w.Rotation {
		if want := w.Rotation[i%w.Pattern].Class; r.Class != want {
			t.Fatalf("slot %d is a %s, the pattern has a %s there", i, r.Class, want)
		}
	}
	count := map[string]int{}
	for _, r := range w.Rotation[:w.Pattern] {
		count[r.Mode]++
	}
	if count["relax"] != 11 || count["approx"] != 5 || count["exact"] != 4 {
		t.Errorf("pattern modes %v, want 11 relax (10 lookups + 1 join), 5 approx, 4 exact (2 joins + 2 pages)", count)
	}
}

func TestParseRow(t *testing.T) {
	key := func(ids ...uint64) (k uint64) {
		for _, id := range ids {
			k = k*1000003 + id + 1
		}
		return k
	}
	for _, c := range []struct {
		line string
		key  uint64
		dist int
		ok   bool
	}{
		{`{"vars":["X"],"labels":["a"],"nodes":[405],"dist":0}` + "\n", key(405), 0, true},
		{`{"vars":["X","Y"],"labels":["a","b"],"nodes":[405,406],"dist":12}` + "\n", key(405, 406), 12, true},
		{`{"vars":["X","Y"],"labels":["x],\"dist\":9}","b"],"nodes":[1,0],"dist":3}`, key(1, 0), 3, true},
		{`{"vars":["X"],"labels":["a"],"nodes":[],"dist":0}`, 0, 0, false},
		{`{"vars":["X"],"labels":["a"],"nodes":[4],"dist":}`, 0, 0, false},
		{`{"vars":["X"],"labels":["a"],"nodes":[4],"dist":1`, 0, 0, false},
		{`{"done":true,"rows":3}`, 0, 0, false},
		{``, 0, 0, false},
	} {
		k, d, ok := parseRow([]byte(c.line))
		if ok != c.ok || (ok && (k != c.key || d != c.dist)) {
			t.Errorf("parseRow(%q) = (%d, %d, %v), want (%d, %d, %v)", c.line, k, d, ok, c.key, c.dist, c.ok)
		}
	}
	// Tuples are ordered: (1,2) and (2,1) are different answers.
	a, _, _ := parseRow([]byte(`{"vars":[],"labels":[],"nodes":[1,2],"dist":0}`))
	b, _, _ := parseRow([]byte(`{"vars":[],"labels":[],"nodes":[2,1],"dist":0}`))
	if a == b {
		t.Error("(1,2) and (2,1) fold to the same key")
	}
}

func TestCheck(t *testing.T) {
	want := Shape{Rows: 100, Hist: []int{63, 37}, Hash: 42}
	if err := Check(want, Shape{Rows: 100, Hist: []int{63, 37}, Hash: 7}, false); err != nil {
		t.Errorf("a top-k with the same histogram and other ties: %v", err)
	}
	if err := Check(want, Shape{Rows: 100, Hist: []int{63, 37}, Hash: 7}, true); err == nil {
		t.Error("an exhaustive answer with another tuple set passed")
	}
	if err := Check(want, Shape{Rows: 100, Hist: []int{62, 38}, Hash: 42}, false); err == nil {
		t.Error("a row that moved from distance 0 to 1 passed")
	}
	if err := Check(want, Shape{Rows: 99, Hist: []int{63, 36}, Hash: 42}, false); err == nil {
		t.Error("a missing row passed")
	}
	if err := Check(Shape{}, Shape{}, true); err != nil {
		t.Errorf("two empty answers: %v", err)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	g := Golden{"L1": {
		"approx|10|(?X) <- (a, b, ?X)":    {Rows: 2, Hist: []int{1, 1}},
		"exact|0|(?X, ?Y) <- (?X, b, ?Y)": {Rows: 3, Hist: []int{3}, Hash: 1<<63 + 5},
	}}
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range g["L1"] {
		if err := Check(want, back["L1"][k], true); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
	b, _ := os.ReadFile(path)
	if !bytes.Contains(b, []byte("(?X) <- (a")) {
		t.Errorf("query texts are escaped in the file:\n%s", b)
	}
}

// The closed-loop figures come from the lower-quartile block, the open-loop
// ones from the window; latencies from each class's lower quartile.
func TestEndToEnd(t *testing.T) {
	win := newWindow()
	win.OK, win.Rows, win.Wall = 48, 4800, 10*time.Second
	for i := 0; i < 8; i++ {
		wall, cpu := 500*time.Millisecond, 0.3
		if i >= 4 { // half the run sat in a slow stretch of the machine
			wall, cpu = 800*time.Millisecond, 0.5
		}
		win.Blocks = append(win.Blocks, Block{wall, cpu, 6, 600})
	}
	win.Lat["Q3"] = []float64{1, 1, 1, 5}
	win.Lat["Q9"] = []float64{100, 100, 400, 400}
	win.TTFA["Q3"] = []float64{0.5}
	win.PeakAcct = 186e6
	m := endToEnd(&Workload{}, []float64{1.3, 0.9, 1.0}, win)
	for name, want := range map[string]float64{
		"setup_s": 0.9, "req_per_s": 12, "answers_per_s": 1200, "lat_gm_ms": 10,
		"ttfa_gm_ms": 0.5, "cpu_ms_per_req": 50, "acct_peak_mb": 186,
	} {
		if got := m[name]; got < want*0.999999 || got > want*1.000001 {
			t.Errorf("closed loop %s = %v, want %v", name, got, want)
		}
	}
	m = endToEnd(&Workload{Open: true}, nil, win)
	if m["req_per_s"] != 4.8 || m["answers_per_s"] != 480 {
		t.Errorf("open loop: %v req/s and %v rows/s, want completed/window = 4.8 and 480", m["req_per_s"], m["answers_per_s"])
	}
}

// BENCHMARK.json at the repository root is the driver's view of the ledger;
// the tables in metrics.go and workload.go are the harness's.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the harness reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %s/%s/%s, the harness reports %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs, true)
	same("per_layer", spec.PerLayer, perLayerDefs, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

// build compiles the binaries the harness drives into dir.
func build(t *testing.T, dir string) {
	t.Helper()
	for _, b := range []struct{ from, out, pkg string }{
		{"..", dir + string(filepath.Separator), "./cmd/omega-serve"},
		{"..", dir + string(filepath.Separator), "./cmd/omega-gen"},
		{".", filepath.Join(dir, "omega-layers"), "./layers"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.from
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
}

// TestSmoke is -smoke: all four workloads on L1 against a real omega-serve
// child, one boot and 1 s windows, traced and untraced, every response
// verified against golden.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots omega-serve children")
	}
	dir := t.TempDir()
	build(t, dir)
	pinGenerator()
	for _, trace := range []bool{false, true} {
		var log bytes.Buffer
		cfg := Config{BinDir: dir, Work: filepath.Join(dir, "work"), Golden: "golden.json", Out: filepath.Join(dir, "out"), Log: &log}
		cfg.smoke()
		cfg.Trace = trace
		ok, err := Main(cfg)
		if err != nil || !ok {
			t.Fatalf("trace=%v: ok=%v err=%v\n%s", trace, ok, err, log.String())
		}
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		var res Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
		}
		defs := endToEndDefs
		if trace {
			defs = perLayerDefs
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: result %+v", trace, res)
		}
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or in %q, want %q", trace, d.Name, v.Unit, d.Unit)
			}
		}
		if !trace {
			for _, d := range endToEndDefs {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v on mixed_open: must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
		}
	}
	// Every exit path removes the run's scratch directory, and with it the
	// server's spill directory; every child has been waited for.
	left, _ := os.ReadDir(filepath.Join(dir, "work"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	for _, w := range workloadNames {
		if _, err := os.Stat(filepath.Join(dir, "out", "trace_"+w+".json")); err != nil {
			t.Errorf("no span file for %s: %v", w, err)
		}
	}
}

// A wrong answer must fail the run: golden entries that disagree with the
// server are failed operations, and the result says so.
func TestSmokeCatchesAWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("boots omega-serve children")
	}
	dir := t.TempDir()
	build(t, dir)
	all, err := LoadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := Golden{"L1": {}}
	for k, s := range all["L1"] {
		if strings.HasPrefix(k, "relax|100|") && s.Rows > 0 {
			s.Hist = append([]int{s.Hist[0] - 1}, append(s.Hist[1:], 1)...) // one row a distance further
		}
		bad["L1"][k] = s
	}
	golden := filepath.Join(dir, "golden.json")
	if err := bad.Save(golden); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	cfg := Config{BinDir: dir, Work: filepath.Join(dir, "work"), Golden: golden, Out: filepath.Join(dir, "out"), Log: &log}
	cfg.smoke()
	cfg.Workload, cfg.Trace = "relax_topk", false
	ok, err := Main(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(log.String(), `"correct":false`) || !strings.Contains(log.String(), "FAILED") {
		t.Errorf("a run against a golden file with a moved row passed:\n%s", log.String())
	}
}
