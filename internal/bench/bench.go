// Package bench implements the measurement protocol of the paper's
// performance study (§4): each query is run five times with the first run
// discarded as cache warm-up; exact queries run to completion; APPROX and
// RELAX queries retrieve the top 100 answers in batches of 10, timed per
// batch. It also renders every table and figure of §4 from live runs.
package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"omega/internal/automaton"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/l4all"
	"omega/internal/ontology"
	"omega/internal/query"
	"omega/internal/yago"
)

// Protocol is the §4.1 measurement protocol.
type Protocol struct {
	Runs       int // total runs; the first is discarded (default 5)
	BatchSize  int // answers per timed batch for APPROX/RELAX (default 10)
	MaxAnswers int // answer budget for APPROX/RELAX (default 100)
}

// DefaultProtocol mirrors the paper.
func DefaultProtocol() Protocol { return Protocol{Runs: 5, BatchSize: 10, MaxAnswers: 100} }

func (p Protocol) withDefaults() Protocol {
	if p.Runs <= 1 {
		p.Runs = 5
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 10
	}
	if p.MaxAnswers <= 0 {
		p.MaxAnswers = 100
	}
	return p
}

// Measurement is the outcome of running one query variant.
type Measurement struct {
	ID      string
	Dataset string
	Mode    automaton.Mode
	Answers int
	ByDist  map[int]int   // answer count per non-zero distance
	Init    time.Duration // average initialisation time
	Total   time.Duration // average time to produce all counted answers
	Batches []time.Duration
	Failed  bool // tuple budget exhausted (the paper's '?')
	// Evaluation counters from the last run (deterministic across runs).
	TuplesAdded  int
	TuplesPopped int
	Phases       int // distance-aware ψ phases (1 otherwise)
	Reinjected   int // deferred tuples re-admitted (incremental mode only)
	Backend      string
}

// DistBreakdown renders the Figure 5-style per-distance annotation, e.g.
// "1 (32) 2 (67)".
func (m Measurement) DistBreakdown() string {
	if len(m.ByDist) == 0 {
		return ""
	}
	dists := make([]int, 0, len(m.ByDist))
	for d := range m.ByDist {
		dists = append(dists, d)
	}
	sort.Ints(dists)
	s := ""
	for i, d := range dists {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d (%d)", d, m.ByDist[d])
	}
	return s
}

// Run executes one query variant under the protocol.
func Run(g *graph.Graph, ont *ontology.Ontology, dataset, id, text string, mode automaton.Mode, opts core.Options, proto Protocol) (Measurement, error) {
	proto = proto.withDefaults()
	q, err := query.Parse(text)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s: %w", id, err)
	}
	for i := range q.Conjuncts {
		q.Conjuncts[i].Mode = mode
	}

	// The paper's figures measure the ranked GetNext machinery; unless an
	// experiment pins a backend explicitly, keep auto selection out of the
	// reproduction numbers.
	if opts.Backend == core.BackendAuto {
		opts.Backend = core.BackendRanked
	}

	m := Measurement{ID: id, Dataset: dataset, Mode: mode, ByDist: map[int]int{}}
	var initSum, totalSum time.Duration
	var batchSums []time.Duration
	counted := 0

	for run := 0; run < proto.Runs; run++ {
		start := time.Now()
		it, err := core.OpenQuery(g, ont, q, opts)
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: %s: %w", id, err)
		}
		initTime := time.Since(start)

		record := run > 0 // discard run 1 (cache warm-up)
		answers := 0
		byDist := map[int]int{}
		var batches []time.Duration
		failed := false

		if mode == automaton.Exact {
			for {
				a, ok, err := it.Next()
				if err == core.ErrTupleBudget {
					failed = true
					break
				}
				if err != nil {
					return Measurement{}, fmt.Errorf("bench: %s: %w", id, err)
				}
				if !ok {
					break
				}
				answers++
				if a.Dist > 0 {
					byDist[int(a.Dist)]++
				}
			}
		} else {
			// Batches of BatchSize up to MaxAnswers, timed per batch.
			for answers < proto.MaxAnswers && !failed {
				batchStart := time.Now()
				got := 0
				for got < proto.BatchSize && answers < proto.MaxAnswers {
					a, ok, err := it.Next()
					if err == core.ErrTupleBudget {
						failed = true
						break
					}
					if err != nil {
						return Measurement{}, fmt.Errorf("bench: %s: %w", id, err)
					}
					if !ok {
						break
					}
					answers++
					got++
					if a.Dist > 0 {
						byDist[int(a.Dist)]++
					}
				}
				if got > 0 {
					batches = append(batches, time.Since(batchStart))
				}
				if got < proto.BatchSize {
					break
				}
			}
		}
		total := time.Since(start)

		if record {
			initSum += initTime
			totalSum += total
			counted++
			for i, b := range batches {
				if i >= len(batchSums) {
					batchSums = append(batchSums, 0)
				}
				batchSums[i] += b
			}
		}
		// Counts are deterministic across runs; keep the last.
		m.Answers = answers
		m.ByDist = byDist
		m.Failed = failed
		s := it.Stats()
		m.TuplesAdded = s.TuplesAdded
		m.TuplesPopped = s.TuplesPopped
		m.Phases = s.Phases
		m.Reinjected = s.Reinjected
		m.Backend = s.Backend
		if failed {
			// A failed (budget-exhausted) query would fail identically on
			// every run; repeating it only burns time (the paper reports
			// such queries as '?', with no timing).
			break
		}
	}

	if counted > 0 {
		m.Init = initSum / time.Duration(counted)
		m.Total = totalSum / time.Duration(counted)
		for _, b := range batchSums {
			m.Batches = append(m.Batches, b/time.Duration(counted))
		}
	}
	return m, nil
}

// Datasets lazily generates and caches the workloads.
type Datasets struct {
	mu      sync.Mutex
	l4      map[l4all.Scale]l4Entry
	yg      map[string]ygEntry
	YagoCfg yago.Config
}

type l4Entry struct {
	g   *graph.Graph
	ont *ontology.Ontology
}

type ygEntry struct {
	g   *graph.Graph
	ont *ontology.Ontology
}

// NewDatasets returns an empty cache using the given YAGO config (zero value
// means the default).
func NewDatasets(cfg yago.Config) *Datasets {
	return &Datasets{l4: map[l4all.Scale]l4Entry{}, yg: map[string]ygEntry{}, YagoCfg: cfg}
}

// L4All returns the cached L4All graph at the given scale.
func (d *Datasets) L4All(s l4all.Scale) (*graph.Graph, *ontology.Ontology) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.l4[s]; ok {
		return e.g, e.ont
	}
	g, o := l4all.Generate(s)
	d.l4[s] = l4Entry{g, o}
	return g, o
}

// YAGO returns the cached YAGO-shaped graph.
func (d *Datasets) YAGO() (*graph.Graph, *ontology.Ontology) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.yg["default"]; ok {
		return e.g, e.ont
	}
	g, o := yago.Generate(d.YagoCfg)
	d.yg["default"] = ygEntry{g, o}
	return g, o
}
