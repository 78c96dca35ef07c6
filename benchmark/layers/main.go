// Command omega-layers is the ledger's traced pass. It runs in-process over
// the data graph the socket run used: each request of the workload goes
// through the engine's public calls one stage at a time with a span around
// each stage, then through the server's HTTP handler without a socket, and a
// set of microkernels times single operations of the layers under them. It
// prints its metrics as one JSON object; the harness (package main of
// omega/benchmark) merges them into the per-layer report.
//
// It is a binary of its own so that the end-to-end harness imports nothing
// from the engine: an engine refactor can break this pass, which a later PR
// then repairs, without stopping the end-to-end figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"time"

	"omega"
	"omega/benchmark/stats"
	"omega/internal/automaton"
	"omega/internal/bitset"
	"omega/internal/bulk"
	"omega/internal/dstruct"
	"omega/internal/graph"
	"omega/internal/serve"
)

// request mirrors the harness's Request (requests.json).
type request struct {
	Class string `json:"class"`
	Mode  string `json:"mode"`
	Limit int    `json:"limit"`
	Text  string `json:"text"`
}

// The server child's settings (benchmark/server.go), for the in-process twin.
const (
	hardMem   = 1 << 30
	maxTuples = 5000000
	workers   = 2
)

func main() {
	graphFile := flag.String("graph", "", "graph file")
	ontFile := flag.String("ontology", "", "ontology file")
	reqFile := flag.String("requests", "", "requests.json written by the harness")
	seed := flag.Int64("seed", 1, "seeds the microkernels' samples")
	seconds := flag.Float64("seconds", 5, "time budget of the staged pass")
	out := flag.String("out", "", "trace file to write")
	flag.Parse()
	if err := run(*graphFile, *ontFile, *reqFile, *out, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "omega-layers:", err)
		os.Exit(1)
	}
}

func run(graphFile, ontFile, reqFile, out string, seed int64, seconds float64) error {
	b, err := os.ReadFile(reqFile)
	if err != nil {
		return err
	}
	var reqs []request
	if err := json.Unmarshal(b, &reqs); err != nil {
		return fmt.Errorf("%s: %w", reqFile, err)
	}
	metrics := map[string]float64{}

	loadStart := time.Now()
	g, ont, err := load(graphFile, ontFile)
	if err != nil {
		return err
	}
	metrics["graph.load_ms"] = float64(time.Since(loadStart).Nanoseconds()) / 1e6

	p := newPass(g, ont)
	defer p.close()
	if err := p.staged(reqs, time.Duration(seconds*float64(time.Second))); err != nil {
		return err
	}
	p.fold(metrics)
	if err := automata(g, ont, reqs, metrics); err != nil {
		return err
	}
	if err := bulkKernels(g, ont, reqs, metrics); err != nil {
		return err
	}
	kernels(g, rand.New(rand.NewSource(seed)), p.tuplesPerPass(), metrics)

	if out != "" {
		tb, err := json.Marshal(p.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, tb, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"metrics": metrics, "handler_ms": p.handlerMs()})
}

func load(graphFile, ontFile string) (*omega.Graph, *omega.Ontology, error) {
	gf, err := os.Open(graphFile)
	if err != nil {
		return nil, nil, err
	}
	defer gf.Close()
	g, err := omega.LoadGraph(gf)
	if err != nil {
		return nil, nil, err
	}
	of, err := os.Open(ontFile)
	if err != nil {
		return nil, nil, err
	}
	defer of.Close()
	ont, err := omega.LoadOntology(of)
	return g, ont, err
}

// sample is one staged execution of one request, in nanoseconds.
type sample struct {
	parse, prepare, build, first, drain, handler int64
	rows, tuples                                 int64
}

// pass is the staged pass: an engine and an in-process server over it, set
// up as omega-serve sets them up.
type pass struct {
	eng     *omega.Engine
	srv     *serve.Server
	pool    *omega.EvalPool
	epoch   time.Time
	spans   []stats.Span
	nreq    int
	classes []string            // in first-seen order
	samples map[string][]sample // by class
}

func newPass(g *omega.Graph, ont *omega.Ontology) *pass {
	eng := omega.NewEngine(g, ont).WithOptions(omega.Options{DistanceAware: true, MaxTuples: maxTuples})
	return &pass{
		eng:     eng,
		srv:     serve.New(serve.Config{Engine: eng, Workers: workers, Timeout: 30 * time.Second, StallBudget: time.Minute, HardMemBytes: hardMem}),
		pool:    omega.NewEvalPool(workers),
		epoch:   time.Now(),
		samples: map[string][]sample{},
	}
}

func (p *pass) close() { _ = p.srv.Close() }

// span appends a span and returns its index.
func (p *pass) span(name string, parent int, start, end time.Time) int {
	p.spans = append(p.spans, stats.Span{Name: name, Req: p.nreq, Parent: parent,
		StartNs: start.Sub(p.epoch).Nanoseconds(), EndNs: end.Sub(p.epoch).Nanoseconds()})
	return len(p.spans) - 1
}

// staged sends every request through the stages, again and again until the
// budget is spent (three passes at least: the first pays the plan-cache miss
// and the cold pool).
func (p *pass) staged(reqs []request, budget time.Duration) error {
	begin := time.Now()
	for rep := 0; rep < 3 || time.Since(begin) < budget; rep++ {
		for _, r := range reqs {
			s, err := p.one(r)
			if err != nil {
				return fmt.Errorf("%s %s %q: %w", r.Class, r.Mode, r.Text, err)
			}
			if _, ok := p.samples[r.Class]; !ok {
				p.classes = append(p.classes, r.Class)
			}
			if rep > 0 { // the first pass is the warm-up
				p.samples[r.Class] = append(p.samples[r.Class], s)
			}
		}
	}
	return nil
}

// one runs one request: request → query.parse → core.prepare{automaton.build}
// → core.exec_first → core.drain → serve.handler{core.replay}. The handler
// stage runs the same request through serve.Server.Handler() into a writer
// that discards; its child core.replay stands for the engine time inside it,
// which the two stages before it just measured, so the handler's self time is
// what serving adds to the engine: plan-cache lookup, admission, scheduling,
// NDJSON encoding and the per-row flush.
func (p *pass) one(r request) (s sample, err error) {
	mode, err := omega.ParseMode(r.Mode)
	if err != nil {
		return s, err
	}
	p.nreq++
	t0 := time.Now()
	q, err := omega.ParseQuery(r.Text)
	if err != nil {
		return s, err
	}
	for i := range q.Conjuncts {
		q.Conjuncts[i].Mode = mode
	}
	t1 := time.Now()
	pq, err := p.eng.Prepare(q)
	if err != nil {
		return s, err
	}
	t2 := time.Now()
	_, built := pq.CompileStats()

	rows, err := pq.Exec(context.Background(), omega.ExecOptions{Limit: r.Limit, Mode: &mode, Pool: p.pool, HardMemBytes: hardMem})
	if err != nil {
		return s, err
	}
	_, ok, err := rows.Next()
	t3 := time.Now()
	for ok && err == nil {
		s.rows++
		_, ok, err = rows.Next()
	}
	st := rows.Stats()
	cerr := rows.Close()
	t4 := time.Now()
	if err != nil {
		return s, err
	}
	if cerr != nil {
		return s, cerr
	}

	w := &discard{h: http.Header{}}
	hr := httptest.NewRequest(http.MethodGet, "/query?"+url.Values{
		"q": {r.Text}, "mode": {r.Mode}, "limit": {strconv.Itoa(r.Limit)}}.Encode(), nil)
	t5 := time.Now()
	p.srv.Handler().ServeHTTP(w, hr)
	t6 := time.Now()
	if w.status != 0 && w.status != http.StatusOK {
		return s, fmt.Errorf("in-process handler answered %d", w.status)
	}

	root := p.span("request", -1, t0, t6)
	p.span("query.parse", root, t0, t1)
	prep := p.span("core.prepare", root, t1, t2)
	p.span("automaton.build", prep, t2.Add(-built), t2)
	p.span("core.exec_first", root, t2, t3)
	p.span("core.drain", root, t3, t4)
	h := p.span("serve.handler", root, t5, t6)
	engine := t4.Sub(t2)
	if engine > t6.Sub(t5) {
		engine = t6.Sub(t5)
	}
	p.span("core.replay", h, t5, t5.Add(engine))

	s.parse, s.prepare, s.build = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), built.Nanoseconds()
	s.first, s.drain, s.handler = t3.Sub(t2).Nanoseconds(), t4.Sub(t3).Nanoseconds(), t6.Sub(t5).Nanoseconds()
	s.tuples = int64(st.TuplesAdded)
	return s, nil
}

// discard is the in-process handler's client: it takes the bytes and drops
// them, so no socket cost enters the handler's time.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Flush()                      {}

// classQuartile reads one field's lower quartile over a class's samples.
func classQuartile(ss []sample, field func(sample) int64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(field(s))
	}
	return stats.LowerQuartile(xs)
}

// handlerMs is the in-process handler latency per class (lower quartile, ms): the
// harness subtracts it from the socket latency for the loopback floor.
func (p *pass) handlerMs() map[string]float64 {
	m := map[string]float64{}
	for c, ss := range p.samples {
		m[c] = classQuartile(ss, func(s sample) int64 { return s.handler }) / 1e6
	}
	return m
}

// tuplesPerPass is the number of tuples one pass over the requests adds to
// D_R: the size of the stream the dstruct microkernels replay.
func (p *pass) tuplesPerPass() int {
	var n float64
	for _, ss := range p.samples {
		n += classQuartile(ss, func(s sample) int64 { return s.tuples })
	}
	return int(n)
}

// fold turns the staged samples into metrics: class lower quartiles first, then the
// geometric mean over classes for the two latencies that mirror ttfa_gm_ms
// and lat_gm_ms, the mean over classes for the per-request costs, and sums
// for the ratios.
func (p *pass) fold(m map[string]float64) {
	first, drain := map[string][]float64{}, map[string][]float64{}
	var parse, prepare, overhead, exec, tuples, rows float64
	for _, c := range p.classes {
		ss := p.samples[c]
		for _, s := range ss {
			first[c] = append(first[c], float64(s.first)/1e6)
			drain[c] = append(drain[c], float64(s.drain)/1e6)
		}
		parse += classQuartile(ss, func(s sample) int64 { return s.parse })
		prepare += classQuartile(ss, func(s sample) int64 { return s.prepare })
		overhead += classQuartile(ss, func(s sample) int64 { return max(0, s.handler-s.first-s.drain) })
		exec += classQuartile(ss, func(s sample) int64 { return s.first + s.drain })
		tuples += classQuartile(ss, func(s sample) int64 { return s.tuples })
		rows += classQuartile(ss, func(s sample) int64 { return s.rows })
	}
	n := float64(len(p.classes))
	if n == 0 {
		return
	}
	m["core.first_answer_ms"] = stats.GeoMeanOfClassQuartiles(first)
	m["core.drain_ms"] = stats.GeoMeanOfClassQuartiles(drain)
	m["query.parse_us"] = parse / n / 1e3
	m["core.prepare_us"] = prepare / n / 1e3
	m["serve.handler_overhead_us"] = overhead / n / 1e3
	if tuples > 0 {
		m["core.ns_per_tuple"] = exec / tuples
	}
	if rows > 0 {
		m["serve.encode_write_ns_per_row"] = overhead / rows
	}
	// How much of the request spans the named layer spans account for.
	self := stats.SelfTimes(p.spans)
	var named, total int64
	for i, s := range p.spans {
		if s.Parent < 0 {
			total += s.EndNs - s.StartNs
		} else {
			named += self[i]
		}
	}
	if total > 0 {
		m["trace.self_time_coverage"] = float64(named) / float64(total)
	}
}

// automata times automaton.Build on the path expression of every
// single-conjunct request, in both flexible modes, and counts the states and
// transitions of the automaton the request's own mode runs on.
func automata(g *omega.Graph, ont *omega.Ontology, reqs []request, m map[string]float64) error {
	var approx, relax, states, trans []float64
	seen := map[string]bool{}
	for _, r := range reqs {
		q, err := omega.ParseQuery(r.Text)
		if err != nil {
			return err
		}
		if len(q.Conjuncts) != 1 || seen[r.Mode+r.Text] {
			continue
		}
		seen[r.Mode+r.Text] = true
		own, err := omega.ParseMode(r.Mode)
		if err != nil {
			return err
		}
		build := func(mode omega.Mode) (c *automaton.Compiled, us float64, err error) {
			opts := automaton.BuildOptions{Mode: mode, Edit: automaton.DefaultEditCosts(), RelaxCosts: automaton.DefaultRelaxCosts()}
			best := time.Duration(-1)
			for i := 0; i < 5; i++ { // the quickest of five: a build is tens of microseconds
				t := time.Now()
				if c, err = automaton.Build(q.Conjuncts[0].Expr, g, ont, opts); err != nil {
					return nil, 0, err
				}
				if d := time.Since(t); best < 0 || d < best {
					best = d
				}
			}
			return c, float64(best.Nanoseconds()) / 1e3, nil
		}
		_, us, err := build(omega.Approx)
		if err != nil {
			return err
		}
		approx = append(approx, us)
		if _, us, err = build(omega.Relax); err != nil {
			return err
		}
		relax = append(relax, us)
		c, _, err := build(own)
		if err != nil {
			return err
		}
		nt := 0
		for _, ts := range c.States {
			nt += len(ts)
		}
		states, trans = append(states, float64(c.NumStates)), append(trans, float64(nt))
	}
	m["automaton.build_us.approx"] = mean(approx)
	m["automaton.build_us.relax"] = mean(relax)
	m["automaton.states"] = mean(states)
	m["automaton.trans"] = mean(trans)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bulkKernels times the bulk backend on the exhaustive EXACT scans of the
// workload: index build, and the lane-block BFS per extracted pair.
func bulkKernels(g *omega.Graph, ont *omega.Ontology, reqs []request, m map[string]float64) error {
	var indexNs, runNs, pairs float64
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.Mode != "exact" || r.Limit != 0 || seen[r.Text] {
			continue
		}
		seen[r.Text] = true
		q, err := omega.ParseQuery(r.Text)
		if err != nil {
			return err
		}
		if len(q.Conjuncts) != 1 {
			continue
		}
		aut, err := automaton.Build(q.Conjuncts[0].Expr, g, ont, automaton.BuildOptions{Mode: omega.Exact})
		if err != nil {
			return err
		}
		if !bulk.Eligible(aut) {
			continue
		}
		t := time.Now()
		ix := bulk.NewIndex(g, aut, nil, nil)
		indexNs += float64(time.Since(t).Nanoseconds())
		run := bulk.NewRun(ix)
		t = time.Now()
		for {
			ps, ok, err := run.NextBlock()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			pairs += float64(len(ps))
		}
		runNs += float64(time.Since(t).Nanoseconds())
	}
	if n := float64(len(seen)); n > 0 {
		m["bulk.index_ms"] = indexNs / n / 1e6
	}
	if pairs > 0 {
		m["bulk.run_ns_per_pair"] = runNs / pairs
	}
	return nil
}

// kernels times single operations of dstruct, graph and bitset. tuples is
// the length of the tuple stream replayed through D_R, the visited table and
// the deferred frontier: what one pass over the workload's requests adds,
// kept between 10k (so the clock resolves it) and 2M (so it stays quick).
func kernels(g *omega.Graph, rng *rand.Rand, tuples int, m map[string]float64) {
	n := min(max(tuples, 10_000), 2_000_000)
	nodes := g.NumNodes()
	stream := make([]dstruct.Tuple, n)
	for i := range stream {
		stream[i] = dstruct.Tuple{
			V: graph.NodeID(rng.Intn(nodes)), N: graph.NodeID(rng.Intn(nodes)),
			S: int32(rng.Intn(4)), D: int32(rng.Intn(3)), Final: rng.Intn(16) == 0,
		}
	}
	const states = 4 // the hint core gives a 4-state automaton: nodes × states

	// Each structure takes the stream twice: once untimed, so that the timed
	// pass runs on grown tables with their pages mapped, as a pooled bundle's
	// are in a warm server.
	dict := dstruct.NewDict()
	visited := dstruct.NewVisitedSized(nodes * states)
	deferred := dstruct.NewDeferred(false)
	sink := 0
	var dictNs, visitedNs, deferredNs int64
	for pass := 0; pass < 2; pass++ {
		// D_R: add the stream, remove it all.
		t := time.Now()
		for _, tu := range stream {
			dict.Add(tu)
		}
		for {
			if _, ok := dict.Remove(); !ok {
				break
			}
		}
		dictNs = time.Since(t).Nanoseconds()
		dict.Reset(false)

		t = time.Now()
		for _, tu := range stream {
			visited.Add(tu.V, tu.N, tu.S)
		}
		visitedNs = time.Since(t).Nanoseconds()
		visited.Reset(nodes * states)

		// Deferred frontier: park the stream one distance out, drain it by ψ.
		t = time.Now()
		for _, tu := range stream {
			tu.D++
			deferred.Add(tu)
		}
		for psi := int32(1); psi <= 3; psi++ {
			deferred.Drain(psi, func(dstruct.Tuple) { sink++ })
		}
		deferredNs = time.Since(t).Nanoseconds()
		deferred.Reset(false)
	}
	_ = deferred.Close()
	m["dstruct.dict_ns_per_op"] = float64(dictNs) / float64(2*n)
	m["dstruct.visited_ns_per_add"] = float64(visitedNs) / float64(n)
	m["dstruct.deferred_ns_per_op"] = float64(deferredNs) / float64(2*n)

	// Reset of a pooled bundle's tables after a request that filled them:
	// what every warm request pays before it starts.
	answers := dstruct.NewAnswersSized(nodes)
	const resets = 50
	var resetNs int64
	for i := 0; i < resets; i++ {
		for _, tu := range stream[:min(n, 50_000)] {
			visited.Add(tu.V, tu.N, tu.S)
			answers.Add(tu.V, tu.N, tu.D)
			dict.Add(tu)
		}
		t := time.Now()
		dict.Reset(false)
		visited.Reset(nodes * states)
		answers.Reset(nodes)
		resetNs += time.Since(t).Nanoseconds()
	}
	m["dstruct.reset_us"] = float64(resetNs) / resets / 1e3

	// Neighbour expansion over a seeded node sample, every label, both
	// directions, per edge returned.
	var labels []graph.LabelID
	for _, name := range g.Labels() {
		if l, ok := g.Label(name); ok {
			labels = append(labels, l)
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	sampleNodes := make([]graph.NodeID, 20_000)
	for i := range sampleNodes {
		sampleNodes[i] = graph.NodeID(rng.Intn(nodes))
	}
	var buf []graph.NodeID
	edges := 0
	t := time.Now()
	for _, v := range sampleNodes {
		for _, l := range labels {
			buf = g.AppendNeighbors(buf[:0], v, l, graph.Out)
			edges += len(buf)
			buf = g.AppendNeighbors(buf[:0], v, l, graph.In)
			edges += len(buf)
		}
	}
	if edges > 0 {
		m["graph.neighbors_ns_per_edge"] = float64(time.Since(t).Nanoseconds()) / float64(edges)
	}

	// OrInto over node-bitmap rows, per word.
	words := (nodes + 63) / 64
	dst, src := make([]uint64, words), make([]uint64, words)
	for i := range src {
		src[i] = rng.Uint64()
	}
	const rounds = 2000
	t = time.Now()
	for i := 0; i < rounds; i++ {
		sink += bitset.OrInto(dst, src)
	}
	m["bitset.orinto_ns_per_word"] = float64(time.Since(t).Nanoseconds()) / float64(rounds*words)
	if sink < 0 {
		panic("unreachable: keeps the kernels' results alive")
	}
}
