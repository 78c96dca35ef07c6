// Command omega-serve runs Omega's streaming query server: an HTTP front-end
// over the compile-once/execute-many API with an LRU plan cache, a bounded
// fair scheduler whose -workers + -queue bound is the one admission rule (503
// beyond it), a memory broker that aborts the largest running query under
// -mem-budget pressure (507), and a pooled evaluator state so steady-state
// requests allocate near zero.
//
// Usage:
//
//	omega-serve -data l4all:L2 -addr :8080
//	omega-serve -graph g.txt -ontology o.txt -workers 8 -queue 32 -timeout 5s
//
// Query with curl (NDJSON: one answer row per line, then a summary object):
//
//	curl -N 'localhost:8080/query?mode=approx&limit=10&q=(?X)+<-+(Librarians,+type-.job-.next,+?X)'
//
// Endpoints: /query (see above), /healthz, /statsz (scheduler, plan cache and
// pool counters as JSON), /metricsz (Prometheus text exposition). Pass
// trace=1 to /query for a span tree on the done line, and -slow-query-ms /
// -debug-addr for the slow-query log and the pprof server.
// On SIGINT/SIGTERM the listener stops accepting, in-flight
// streams drain, and every request's evaluator state is released before the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served via -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"omega"
	"omega/internal/serve"
)

// The flags live at package level so that a test can parse a command line
// against exactly the set main parses.
var (
	addr      = flag.String("addr", ":8080", "listen address")
	data      = flag.String("data", "", "builtin dataset: l4all:L1..L4 or yago:<scale factor>")
	graphFile = flag.String("graph", "", "graph file (omega-graph v1, or .nt N-Triples)")
	ontFile   = flag.String("ontology", "", "ontology file (omega-ontology v1)")

	workers    = flag.Int("workers", 4, "concurrently executing requests")
	queue      = flag.Int("queue", 0, "admitted requests waiting for a worker slot (0 = 2×workers, -1 = none)")
	timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
	retryAfter = flag.Duration("retry-after", time.Second, "back-off hint attached to 503 rejections")
	planCache  = flag.Int("plan-cache", 128, "prepared plans retained (LRU)")
	poolSize   = flag.Int("pool", 0, "evaluator-state bundles retained (0 = workers, -1 = disable pooling)")
	maxLimit   = flag.Int("max-limit", 10000, "cap on per-request row limit (0 = none)")

	stallBudget = flag.Duration("stall-budget", time.Minute, "abort running requests that deliver no rows for this long (0 = off)")

	memBudget   = flag.Int64("mem-budget", 0, "server-wide accounted-bytes budget; above it the largest running query is aborted with 507 (0 = GOMEMLIMIT or off, -1 = off)")
	memInterval = flag.Duration("mem-check-interval", 0, "memory-pressure monitor tick (0 = 100ms)")

	slowQueryMs = flag.Int("slow-query-ms", 0, "log a structured slow-query line for requests at or above this latency in milliseconds (0 = off)")
	debugAddr   = flag.String("debug-addr", "", "listen address for the pprof debug server (empty = off)")

	distAware = flag.Bool("distance-aware", true, "enable §4.3 retrieval by distance")
	disjunct  = flag.Bool("disjunction", false, "enable §4.3 alternation-by-disjunction")
	rareSide  = flag.Bool("rare-side", false, "evaluate (?X,R,?Y) conjuncts from the rarer end")
	quiet     = flag.Bool("quiet", false, "suppress the per-request log")

	// Per-request execution defaults — max-tuples and hard-mem — come
	// from the shared knob registry, so the flags validate exactly like their
	// HTTP parameter counterparts (which override them per request through the
	// same registry).
	knobs = omega.BindExecFlags(flag.CommandLine, map[string]string{
		"maxtuples": "5000000",
	}, "maxtuples", "hardmem")

	// The server keeps no disk state, but benchmark/server.go still passes
	// -spill-dir and -janitor=false; both are accepted and ignored until the
	// harness drops them (ROADMAP item 8d).
	_ = flag.String("spill-dir", "", "ignored")
	_ = flag.Bool("janitor", false, "ignored")
)

func main() {
	flag.Parse()

	g, ont, err := omega.LoadDataset(*data, *graphFile, *ontFile)
	if err != nil {
		fatal(err)
	}
	var defaults omega.ExecOptions
	if err := knobs.Apply(&defaults); err != nil {
		fatal(err)
	}
	opts := omega.Options{
		DistanceAware: *distAware,
		Disjunction:   *disjunct,
		RareSide:      *rareSide,
		MaxTuples:     defaults.MaxTuples,
	}
	eng := omega.NewEngine(g, ont).WithOptions(opts)

	logger := log.New(os.Stderr, "omega-serve: ", log.LstdFlags)
	if *quiet {
		logger = nil
	}
	srv := serve.New(serve.Config{
		Engine:           eng,
		Workers:          *workers,
		Queue:            *queue,
		Timeout:          *timeout,
		RetryAfter:       *retryAfter,
		StallBudget:      *stallBudget,
		PlanCacheSize:    *planCache,
		PoolSize:         *poolSize,
		MaxLimit:         *maxLimit,
		MemBudget:        *memBudget,
		MemCheckInterval: *memInterval,
		HardMemBytes:     defaults.HardMemBytes,
		SlowQuery:        time.Duration(*slowQueryMs) * time.Millisecond,
		Log:              logger,
	})

	// The pprof server listens on its own address so profiling endpoints are
	// never exposed on the query port. net/http/pprof registers its handlers
	// on http.DefaultServeMux; the query mux below is separate.
	if *debugAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "omega-serve: pprof debug server on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "omega-serve: debug server: %v\n", err)
			}
		}()
	}

	ln, err := listen(*addr, os.Stderr,
		fmt.Sprintf("%d nodes, %d edges; %d workers, queue %d", g.NumNodes(), g.NumEdges(), *workers, *queue))
	if err != nil {
		fatal(err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "omega-serve: %v — draining\n", s)
	case err := <-errCh:
		fatal(err)
	}

	// Graceful shutdown: stop accepting, let in-flight handlers stream their
	// tails (bounded), then drain the scheduler so every execution has
	// released its evaluator state.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "omega-serve: shutdown: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "omega-serve: drain: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "omega-serve: bye")
}

// listen binds addr and logs the address it bound, not the one it was given:
// with ":0" the kernel picks the port, and the log line is how a caller that
// asked for any free port learns where the server is.
func listen(addr string, logw io.Writer, what string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "omega-serve: listening on %s (%s)\n", ln.Addr(), what)
	return ln, nil
}

// newHTTPServer wraps the query handler. Response writes are bounded per
// flush by the handler itself (stall budget / request deadline), so there is
// no blanket WriteTimeout to cut a long healthy stream; ReadHeaderTimeout
// keeps a client that never finishes its request from holding a connection.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "omega-serve: %v\n", err)
	os.Exit(1)
}
