package omega

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"omega/internal/l4all"
)

// TestEvalPoolCorpusDifferential is the pooled-vs-fresh serving contract over
// the L4All study corpus: executions drawing their evaluator state from a
// shared EvalPool must emit sequences byte-identical to fresh executions —
// same rows, same distances, same order — including under the incremental
// distance-aware mode, whose entries parked above ψ live in the recycled
// bundle's D_R. Eight goroutines hammer one pool concurrently, so under -race this
// also pins the ownership hand-off (a bundle is exclusive to one execution
// from get to put).
func TestEvalPoolCorpusDifferential(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	const workers = 8
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"distance-aware", Options{DistanceAware: true}},
		{"disjunction", Options{Disjunction: true, DistanceAware: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(g, ont).WithOptions(tc.opts)
			pool := NewEvalPool(workers)
			queries := L4AllQueries()
			if testing.Short() {
				queries = queries[:4]
			}
			for _, q := range queries {
				pq, err := eng.PrepareText(q.Text)
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				fresh, err := pq.Exec(context.Background(), ExecOptions{Mode: ModeOverride(Approx)})
				if err != nil {
					t.Fatalf("%s: fresh Exec: %v", q.ID, err)
				}
				want, err := fresh.Collect(300)
				if err != nil {
					t.Fatalf("%s: fresh Collect: %v", q.ID, err)
				}
				fresh.Close()

				var wg sync.WaitGroup
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for rep := 0; rep < 2; rep++ {
							rows, err := pq.Exec(context.Background(), ExecOptions{
								Mode: ModeOverride(Approx),
								Pool: pool,
							})
							if err != nil {
								errs <- fmt.Errorf("%s worker %d: Exec: %w", q.ID, w, err)
								return
							}
							got, err := rows.Collect(300)
							rows.Close()
							if err != nil {
								errs <- fmt.Errorf("%s worker %d: Collect: %w", q.ID, w, err)
								return
							}
							if len(got) != len(want) {
								errs <- fmt.Errorf("%s worker %d: pooled %d rows, fresh %d", q.ID, w, len(got), len(want))
								return
							}
							for i := range got {
								if got[i].Dist != want[i].Dist || got[i].Labels[0] != want[i].Labels[0] {
									errs <- fmt.Errorf("%s worker %d row %d: pooled %v, fresh %v", q.ID, w, i, got[i], want[i])
									return
								}
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			s := pool.Stats()
			if s.Reuses == 0 {
				t.Fatalf("pool never recycled state: %+v", s)
			}
			if s.Puts != s.Gets {
				t.Fatalf("pool leak: %d gets, %d puts", s.Gets, s.Puts)
			}
		})
	}
}

// TestEvalPoolTenantInterleaving is the hand-off the O(1) reset has to get
// right: one pooled bundle serves an exhaustive APPROX Q9 (the corpus's
// largest run, which leaves the visited table full of a finished generation
// and the answer registry grown) and then a study query's top-100 in each
// mode. No table is cleared in between, so anything the large tenant left
// that still read as live would change what the small one visits: its rows,
// their order and its work counters must be those of a run on fresh state.
func TestEvalPoolTenantInterleaving(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	eng := NewEngine(g, ont).WithOptions(Options{DistanceAware: true})
	pool := NewEvalPool(1)
	big, err := eng.PrepareText(l4allQueryText(t, "Q9"))
	if err != nil {
		t.Fatal(err)
	}
	queries := l4all.StudyQueries()
	if testing.Short() {
		queries = queries[:2]
	}
	for _, q := range queries {
		pq, err := eng.PrepareText(q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		filled := runWorkCase(t, "Q9/APPROX", big, ExecOptions{Mode: ModeOverride(Approx), Pool: pool})
		if filled.counters.VisitedSize < 10_000 {
			t.Fatalf("large tenant visited only %d triples", filled.counters.VisitedSize)
		}
		for _, mode := range []Mode{Exact, Approx, Relax} {
			name := fmt.Sprintf("%s/%v after Q9/APPROX", q.ID, mode)
			eo := ExecOptions{Mode: ModeOverride(mode), Limit: 100}
			fresh := runWorkCase(t, name, pq, eo)
			eo.Pool = pool
			if pooled := runWorkCase(t, name, pq, eo); !pooled.sameWork(fresh) {
				t.Fatalf("%s: the previous tenant leaked into the run:\n pooled %+v\n fresh  %+v",
					name, pooled.counters, fresh.counters)
			}
		}
	}
	if s := pool.Stats(); s.Misses != 1 || s.Puts != s.Gets {
		t.Fatalf("one bundle should have served every run: %+v", s)
	}
}

// TestEvalPoolCeilingDoesNotLeak: D_R parks the entries over ψ of a
// distance-aware run above its pop ceiling, so a distance-aware APPROX Q12
// top-1 (every answer is at distance 1) hands its bundle back with the
// ceiling at ψ = 1 and entries still parked above it. The next tenant of that
// bundle must run as on fresh state: an exhaustive EXACT Q5 on the ranked
// backend, and a plain APPROX Q8 top-100, whose answers all lie at distance
// 2, over the ceiling the previous tenant left.
func TestEvalPoolCeilingDoesNotLeak(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	pool := NewEvalPool(1)
	capped, err := NewEngine(g, ont).WithOptions(Options{DistanceAware: true}).PrepareText(l4allQueryText(t, "Q12"))
	if err != nil {
		t.Fatal(err)
	}
	plain := NewEngine(g, ont)
	for _, tc := range []struct {
		name, query string
		eo          ExecOptions
	}{
		{"Q5/EXACT/exhaustive", "Q5", ExecOptions{Mode: ModeOverride(Exact), Backend: BackendRanked}},
		{"Q8/APPROX/plain/limit=100", "Q8", ExecOptions{Mode: ModeOverride(Approx), Limit: 100}},
	} {
		left := runWorkCase(t, "Q12/APPROX/distaware/limit=1", capped,
			ExecOptions{Mode: ModeOverride(Approx), Limit: 1, Pool: pool})
		if c := left.counters; c.Rows != 1 || c.Phases < 2 || c.Deferred <= c.Reinjected {
			t.Fatalf("the top-1 run left no entries parked above ψ ≥ 1: %+v", c)
		}
		pq, err := plain.PrepareText(l4allQueryText(t, tc.query))
		if err != nil {
			t.Fatal(err)
		}
		fresh := runWorkCase(t, tc.name, pq, tc.eo)
		if fresh.counters.Rows == 0 {
			t.Fatalf("%s: no rows on fresh state", tc.name)
		}
		tc.eo.Pool = pool
		if pooled := runWorkCase(t, tc.name, pq, tc.eo); !pooled.sameWork(fresh) {
			t.Fatalf("%s: the capped tenant leaked into the run:\n pooled %+v\n fresh  %+v",
				tc.name, pooled.counters, fresh.counters)
		}
	}
	if s := pool.Stats(); s.Misses != 1 || s.Puts != s.Gets {
		t.Fatalf("one bundle should have served every run: %+v", s)
	}
}
