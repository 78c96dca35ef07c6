package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"omega/internal/automaton"
	"omega/internal/fault"
	"omega/internal/graph"
	"omega/internal/obs"
	"omega/internal/ontology"
)

// ringGraph: n nodes, n_i -p-> n_{i+1} and n_i -q-> n_{i+7} (mod n). Large
// enough at n = 512 that (?X, p.q, ?Y) has eight bulk lane blocks and four
// shards of 128 sources, each shard doing more than one memory-sample period
// of tuple operations; small enough at n = 40 that sharding stands aside.
func ringGraph(t testing.TB, n int) *graph.Graph {
	b := graph.NewBuilder()
	name := func(i int) string { return fmt.Sprintf("n%d", i%n) }
	for i := 0; i < n; i++ {
		mustAdd(t, b, name(i), "p", name(i+1))
		mustAdd(t, b, name(i), "q", name(i+7))
	}
	return b.Freeze()
}

// contractDriver is one row of the driver-contract table: how to open one
// Iterator implementation, and how to tell that it is the one the row claims.
type contractDriver struct {
	name     string
	small    bool // on the 40-node ring instead of the 512-node one
	c        Conjunct
	opts     Options
	prefetch bool
	is       func(Iterator) bool // asserted on the iterator under any prefetch
	empty    bool                // owns nothing and never fails: only the endings a caller drives apply
	held     int                 // pooled bundles the driver holds when it ends (a restarting driver recycled the earlier ones)
	sharded  bool                // one bundle per worker, and the workers end by cancellation: Abort recycles them
	site     string              // the failpoint that reaches this driver
}

func unwrap(it Iterator) Iterator {
	switch w := it.(type) {
	case swapIterator:
		return unwrap(w.Iterator)
	case sameVarIterator:
		return unwrap(w.Iterator)
	}
	return it
}

func contractDrivers() []contractDriver {
	isEval := func(it Iterator) bool { _, ok := it.(*evaluator); return ok }
	branches := func(n int) func(Iterator) bool {
		return func(it Iterator) bool { d, ok := it.(*disjunction); return ok && len(d.evals) == n }
	}
	isBulk := func(it Iterator) bool { _, ok := it.(*bulkIterator); return ok }
	isPar := func(it Iterator) bool { _, ok := it.(*parIterator); return ok }
	base := []contractDriver{
		{name: "evaluator", c: conj("n0", "p.q", "?X", automaton.Approx), is: isEval, held: 1, site: "core.row"},
		{name: "disjunction/1", c: conj("n0", "p.q", "?X", automaton.Approx), opts: Options{DistanceAware: true}, is: branches(1), held: 1, site: "core.row"},
		{name: "disjunction/2", c: conj("n0", "(p.q)|(q.p)", "?X", automaton.Approx), opts: Options{Disjunction: true}, is: branches(2), held: 2, site: "core.row"},
		{name: "restartDisjunction", c: conj("n0", "p.q", "?X", automaton.Approx), opts: Options{DistanceAware: true, DistanceRestart: true},
			is: func(it Iterator) bool { _, ok := it.(*restartDisjunction); return ok }, held: 1, site: "core.row"},
		{name: "bulk/serial", c: conj("?X", "p.q", "?Y", automaton.Exact), opts: Options{Backend: BackendBulk}, is: isBulk, site: "bulk.step"},
		{name: "bulk/par4", c: conj("?X", "p.q", "?Y", automaton.Exact), opts: Options{Backend: BackendBulk, Parallelism: 4}, is: isBulk, site: "bulk.step"},
		{name: "par/sharded", c: conj("?X", "p.q", "?Y", automaton.Exact), opts: Options{Backend: BackendRanked, Parallelism: 4}, is: isPar, sharded: true, site: "par.shard"},
		{name: "par/serial-fallback", small: true, c: conj("?X", "p*", "?Y", automaton.Exact), opts: Options{Backend: BackendRanked, Parallelism: 4}, is: isPar, held: 1, site: "core.row"},
	}
	out := append([]contractDriver(nil), base...)
	for _, d := range base {
		d.name, d.prefetch = "prefetch/"+d.name, true
		out = append(out, d)
	}
	return append(out,
		contractDriver{name: "swapIterator", c: conj("?X", "p.q", "n5", automaton.Approx), held: 1, site: "core.row",
			is: func(it Iterator) bool { _, ok := it.(swapIterator); return ok && isEval(unwrap(it)) }},
		contractDriver{name: "sameVarIterator", small: true, c: conj("?X", "p.q", "?X", automaton.Approx), held: 1, site: "core.row",
			is: func(it Iterator) bool { _, ok := it.(sameVarIterator); return ok && isEval(unwrap(it)) }},
		contractDriver{name: "emptyIterator", c: conj("nowhere", "p", "?X", automaton.Exact), empty: true,
			is: func(it Iterator) bool { _, ok := it.(*emptyIterator); return ok }},
	)
}

// contractEnding is one column: what happens to the run before the first pull
// (setup), how the test ends the stream (end; nil = pull until Next stops),
// and the sticky error the driver must then report.
type contractEnding struct {
	name  string
	setup func(d contractDriver, env *contractEnv)
	end   func(t *testing.T, it Iterator)
	want  error // nil = clean exhaustion
	fails bool  // the ending is produced by the driver's own governance, which an empty iterator has none of
}

type contractEnv struct {
	ctx  context.Context
	opts Options
	mem  *MemGauge
}

var errContractAbort = errors.New("contract: aborted")

func contractEndings() []contractEnding {
	first := func(t *testing.T, it Iterator) {
		t.Helper()
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("first answer: (%v, %v)", ok, err)
		}
	}
	return []contractEnding{
		{name: "exhaust", want: nil},
		{name: "close-mid-stream", want: ErrClosed, end: func(t *testing.T, it Iterator) {
			if _, ok := it.(*emptyIterator); !ok {
				first(t, it)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}},
		{name: "close-twice", want: ErrClosed, end: func(t *testing.T, it Iterator) {
			for i := 0; i < 2; i++ {
				if err := it.Close(); err != nil {
					t.Fatalf("Close %d: %v", i+1, err)
				}
			}
		}},
		{name: "abort", want: errContractAbort, end: func(t *testing.T, it Iterator) {
			if _, ok := it.(*emptyIterator); !ok {
				first(t, it)
			}
			it.Abort(errContractAbort)
		}},
		// The context is done before the first pull: a bulk or sharded run
		// checks it once per BFS level or worker Next, so a cancellation raced
		// against a draining stream could as well find it exhausted.
		{name: "cancel", want: ErrCanceled, fails: true, setup: func(_ contractDriver, env *contractEnv) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			env.ctx = ctx
		}},
		{name: "victim-kill", want: ErrMemBudget, fails: true, setup: func(_ contractDriver, env *contractEnv) {
			ctx, kill := context.WithCancelCause(context.Background())
			kill(ErrMemBudget)
			env.ctx = ctx
		}},
		{name: "hard-watermark", want: ErrMemBudget, fails: true, setup: func(_ contractDriver, env *contractEnv) {
			env.mem = NewMemGauge(0, 1)
		}},
		{name: "tuple-budget", want: ErrTupleBudget, fails: true, setup: func(_ contractDriver, env *contractEnv) {
			env.opts.MaxTuples = 5
		}},
		{name: "failpoint", want: fault.ErrInjected, fails: true, setup: func(d contractDriver, _ *contractEnv) {
			if err := fault.Configure(d.site+"=error", 1); err != nil {
				panic(err)
			}
		}},
	}
}

// TestDriverContract holds every Iterator implementation to the one contract,
// under every way a stream can end: the sticky error and its identity, Next
// after Close, Stats after the end, a gauge back at zero, and pooled bundles
// recycled or discarded as recyclable(err) says.
func TestDriverContract(t *testing.T) {
	big, small := ringGraph(t, 512), ringGraph(t, 40)
	ont := ontology.New()
	t.Cleanup(fault.Reset)
	for _, d := range contractDrivers() {
		for _, e := range contractEndings() {
			if d.empty && e.fails {
				continue
			}
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/pooled=%v", d.name, e.name, pooled)
				t.Run(name, func(t *testing.T) {
					env := contractEnv{opts: d.opts.withDefaults(), mem: NewMemGauge(0, 0)}
					var pool *EvalPool
					if pooled {
						pool = NewEvalPool(8)
					}
					if e.setup != nil {
						e.setup(d, &env)
						defer fault.Reset()
					}
					g := big
					if d.small {
						g = small
					}
					plan, err := compileConjunct(g, ont, d.c, env.opts)
					if err != nil {
						t.Fatal(err)
					}
					r := newRun(env.ctx, env.opts, env.mem, pool, nil)
					r.opts.Parallelism = resolveParallelism(0, env.opts.Parallelism)
					it := plan.open(&r, obs.NoSpan, 0, plan.chooseBackend(env.opts.Backend, true).backend)
					if !d.is(it) {
						t.Fatalf("the row opened a %T", it)
					}
					if d.prefetch {
						it = newPrefetchIterator(it)
					}

					want := e.want
					if e.end != nil {
						e.end(t, it)
					}
					_, ok, err := it.Next()
					for ok && err == nil {
						_, ok, err = it.Next()
					}
					if ok || (want == nil) != (err == nil) || !errors.Is(err, want) {
						t.Fatalf("stream ended with (%v, %v), want %v", ok, err, want)
					}
					for i := 0; i < 2; i++ {
						if _, ok, again := it.Next(); ok || again != err {
							t.Fatalf("Next %d after the end = (%v, %v), want the same %v", i+1, ok, again, err)
						}
					}
					if live := env.mem.LiveBytes(); live != 0 {
						t.Fatalf("%d bytes still charged to the gauge after the end", live)
					}

					// Close after any ending: idempotent, and it never replaces
					// a terminal error.
					if cerr := it.Close(); cerr != nil {
						t.Fatalf("Close after the end: %v", cerr)
					}
					afterClose := err
					if afterClose == nil {
						afterClose = ErrClosed
					}
					if _, ok, got := it.Next(); ok || got != afterClose {
						t.Fatalf("Next after Close = (%v, %v), want %v", ok, got, afterClose)
					}
					st := it.Stats()
					if !d.empty && st.MemPeakBytes != env.mem.PeakBytes() {
						t.Fatalf("Stats.MemPeakBytes = %d after the end, gauge peak %d", st.MemPeakBytes, env.mem.PeakBytes())
					}
					if d.sharded && e.name != "close-twice" && st.Shards < 2 { // closed before the first pull, the shards never start
						t.Fatalf("sharding never engaged: %+v", st)
					}
					if live := env.mem.LiveBytes(); live != 0 {
						t.Fatalf("%d bytes still charged to the gauge after Close", live)
					}
					if pool == nil {
						return
					}
					ps := pool.Stats()
					switch {
					case ps.Puts+ps.Poisoned != ps.Gets:
						t.Fatalf("bundles leaked: %+v", ps)
					case recyclable(want) && ps.Poisoned != 0:
						t.Fatalf("a clean stop (%v) poisoned a bundle: %+v", want, ps)
					case !recyclable(want) && d.sharded && e.name == "abort":
						// Workers were between Next calls and ended by
						// cancellation: their state is intact.
						if ps.Poisoned != 0 {
							t.Fatalf("Abort poisoned a shard worker's bundle: %+v", ps)
						}
					case !recyclable(want) && d.sharded:
						if ps.Poisoned == 0 {
							t.Fatalf("%v recycled every bundle: %+v", want, ps)
						}
					case !recyclable(want) && e.name == "abort" && d.prefetch:
						// The prefetcher may have drained the inner stream — and
						// recycled its bundles — before the Abort arrived.
						if ps.Poisoned > int64(d.held) {
							t.Fatalf("Abort discarded more than the %d bundles the driver held: %+v", d.held, ps)
						}
					case !recyclable(want) && ps.Poisoned != int64(d.held):
						t.Fatalf("%v discarded %d bundles of the %d the driver held: %+v", want, ps.Poisoned, d.held, ps)
					}
				})
			}
		}
	}
}
