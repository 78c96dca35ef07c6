package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"omega"
	"omega/internal/automaton"
	"omega/internal/fault"
	"omega/internal/l4all"
	"omega/internal/query"
	"omega/internal/serve"
)

// Serve renders the serving-layer study: steady-state allocations per request
// with the evaluator-state pool off and on (the pool's whole purpose is to
// cut per-request allocation churn at high QPS), and a closed-loop run
// through the admission-controlled scheduler measuring QPS and latency
// quantiles. Pooled emission is verified byte-identical to fresh before
// anything is measured — amortisation must never change what a query returns.
func Serve(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	scale := cfg.Scales[len(cfg.Scales)-1]
	g, ont := cfg.Datasets.L4All(scale)
	eng := omega.NewEngine(g, ont).WithOptions(cfg.Opts)
	top := cfg.Proto.MaxAnswers

	const (
		allocReqs   = 50  // sequential requests per allocation measurement
		loopReqs    = 200 // total requests per closed-loop run
		loopClients = 8   // concurrent closed-loop clients
		workers     = 4
	)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tdataset\tallocs/req fresh\tallocs/req pooled\treduction\tKB/req fresh\tKB/req pooled\tQPS fresh\tQPS pooled\tp50 ms pooled\tp99 ms pooled")
	for _, q := range l4all.StudyQueries() {
		if q.ID != "Q3" && q.ID != "Q8" && q.ID != "Q9" {
			continue
		}
		parsed, err := query.Parse(q.Text)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", q.ID, err)
		}
		for i := range parsed.Conjuncts {
			parsed.Conjuncts[i].Mode = automaton.Approx
		}
		pq, err := eng.Prepare(parsed)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", q.ID, err)
		}

		// Correctness gate: pooled emission is byte-identical to fresh, with
		// the same pool reused across the checks so state really recycles.
		pool := omega.NewEvalPool(workers)
		fresh, err := collectRows(pq, omega.ExecOptions{Limit: top})
		if err != nil {
			return fmt.Errorf("bench: %s: fresh: %w", q.ID, err)
		}
		for rep := 0; rep < 3; rep++ {
			pooled, err := collectRows(pq, omega.ExecOptions{Limit: top, Pool: pool})
			if err != nil {
				return fmt.Errorf("bench: %s: pooled: %w", q.ID, err)
			}
			if err := sameRows(fresh, pooled); err != nil {
				return fmt.Errorf("bench: %s: pooled emission differs from fresh: %w", q.ID, err)
			}
		}

		// Steady-state allocations per request, single client.
		freshAllocs, freshBytes, err := allocsPerRequest(pq, omega.ExecOptions{Limit: top}, allocReqs)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", q.ID, err)
		}
		pooledAllocs, pooledBytes, err := allocsPerRequest(pq, omega.ExecOptions{Limit: top, Pool: pool}, allocReqs)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", q.ID, err)
		}
		reduction := 0.0
		if pooledAllocs > 0 {
			reduction = freshAllocs / pooledAllocs
		}

		// Closed-loop serving through the scheduler: loopClients concurrent
		// clients issuing loopReqs requests in total.
		freshLoop, err := closedLoop(pq, nil, workers, loopClients, loopReqs, top)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", q.ID, err)
		}
		firesBefore := totalFires()
		pooledLoop, err := closedLoop(pq, pool, workers, loopClients, loopReqs, top)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", q.ID, err)
		}

		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\t%.1f×\t%.1f\t%.1f\t%.0f\t%.0f\t%.2f\t%.2f\n",
			q.ID, scale, freshAllocs, pooledAllocs, reduction,
			freshBytes/1024, pooledBytes/1024,
			freshLoop.QPS, pooledLoop.QPS,
			float64(pooledLoop.P50.Nanoseconds())/1e6, float64(pooledLoop.P99.Nanoseconds())/1e6)

		if cfg.Recorder != nil {
			cfg.Recorder.Add(Record{
				Experiment:       cfg.Experiment,
				Dataset:          scale.String(),
				Query:            q.ID + "(fresh)",
				Mode:             modeName(automaton.Approx),
				Answers:          len(fresh),
				AllocsPerReq:     freshAllocs,
				BytesPerReq:      freshBytes,
				QPS:              freshLoop.QPS,
				PeakBytes:        freshLoop.PeakBytes,
				MemAborts:        freshLoop.MemAborts,
				SpillEscalations: freshLoop.SpillEscalations,
			})
			cfg.Recorder.Add(Record{
				Experiment:       cfg.Experiment,
				Dataset:          scale.String(),
				Query:            q.ID + "(pooled)",
				Mode:             modeName(automaton.Approx),
				Answers:          len(fresh),
				AllocsPerReq:     pooledAllocs,
				BytesPerReq:      pooledBytes,
				QPS:              pooledLoop.QPS,
				P50Ms:            float64(pooledLoop.P50.Nanoseconds()) / 1e6,
				P99Ms:            float64(pooledLoop.P99.Nanoseconds()) / 1e6,
				FaultsFired:      totalFires() - firesBefore,
				Panics:           pooledLoop.Sched.Panics,
				StallAborts:      pooledLoop.Sched.Stalled,
				PoolPoisoned:     pool.Stats().Poisoned,
				PeakBytes:        pooledLoop.PeakBytes,
				MemAborts:        pooledLoop.MemAborts,
				SpillEscalations: pooledLoop.SpillEscalations,
			})
		}
	}
	return tw.Flush()
}

// collectRows drains one execution of pq.
func collectRows(pq *omega.PreparedQuery, eo omega.ExecOptions) ([]omega.Row, error) {
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return rows.Collect(0)
}

// sameRows requires two ranked row sequences to be identical.
func sameRows(a, b []omega.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i].Dist != b[i].Dist || len(a[i].Nodes) != len(b[i].Nodes) {
			return fmt.Errorf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return fmt.Errorf("row %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	return nil
}

// allocsPerRequest measures steady-state heap allocations (count and bytes)
// per Exec+stream+Close cycle, single-goroutine, draining row by row the way
// a streaming server does (no client-side accumulation). A warm-up request
// runs first so one-off growth (pool fill, plan-variant caches) is excluded —
// the steady state is what a server lives in.
func allocsPerRequest(pq *omega.PreparedQuery, eo omega.ExecOptions, n int) (allocs, bytes float64, err error) {
	if err := streamOnce(pq, eo); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := streamOnce(pq, eo); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), nil
}

// streamOnce drains one execution without retaining rows.
func streamOnce(pq *omega.PreparedQuery, eo omega.ExecOptions) error {
	rows, err := pq.Exec(context.Background(), eo)
	if err != nil {
		return err
	}
	defer rows.Close()
	for {
		_, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// totalFires sums failpoint activations across every armed site (0 when the
// registry is off — the normal bench configuration).
func totalFires() int64 {
	var n int64
	for _, st := range fault.Stats() {
		n += st.Fires
	}
	return n
}

// loopStats is what one closed-loop run reports: throughput, latency
// quantiles, the scheduler's failure counters, and the memory-governance
// aggregate across all requests (max accounted peak, summed spill
// escalations, and requests aborted by a memory budget).
type loopStats struct {
	QPS              float64
	P50, P99         time.Duration
	Sched            serve.SchedulerStats
	PeakBytes        int64
	SpillEscalations int
	MemAborts        int64
}

// closedLoop runs total requests through a scheduler from clients concurrent
// goroutines, each submitting its next request as soon as the previous one
// finishes. A request aborted by a memory budget (omega.ErrMemBudget — only
// possible when the run executes with budgets or failpoints armed) is counted
// and the loop continues; any other failure aborts the whole run.
func closedLoop(pq *omega.PreparedQuery, pool *omega.EvalPool, workers, clients, total, top int) (loopStats, error) {
	s := serve.NewScheduler(serve.SchedulerConfig{Workers: workers, Queue: clients, Quantum: 64})
	defer s.Close()

	latencies := make([]time.Duration, total)
	var next int
	var peakBytes int64
	var escalations int
	var memAborts int64
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= total {
			return -1
		}
		next++
		return next - 1
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i < 0 {
					return
				}
				reqStart := time.Now()
				res, err := s.Stream(context.Background(),
					func(ctx context.Context) (*omega.Rows, error) {
						return pq.Exec(ctx, omega.ExecOptions{Limit: top, Pool: pool})
					},
					func([]omega.Row, bool) error { return nil })
				if err != nil && !errors.Is(err, omega.ErrMemBudget) {
					errCh <- err
					return
				}
				mu.Lock()
				if err != nil {
					memAborts++
				}
				if res.Stats.MemPeakBytes > peakBytes {
					peakBytes = res.Stats.MemPeakBytes
				}
				escalations += res.Stats.SpillEscalations
				mu.Unlock()
				latencies[i] = time.Since(reqStart)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(errCh)
	for err := range errCh {
		if err != nil {
			return loopStats{}, err
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) time.Duration {
		i := int(q * float64(len(latencies)-1))
		return latencies[i]
	}
	return loopStats{
		QPS:              float64(total) / wall.Seconds(),
		P50:              quantile(0.50),
		P99:              quantile(0.99),
		Sched:            s.Stats(),
		PeakBytes:        peakBytes,
		SpillEscalations: escalations,
		MemAborts:        memAborts,
	}, nil
}
