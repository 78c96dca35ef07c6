package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"omega"
	"omega/internal/fault"
)

// Failure-hardening tests for the scheduler: panic isolation and the
// stuck-query watchdog. They use the process-global failpoint registry, so
// none of them may run in parallel.

func armFaults(t *testing.T, spec string, seed int64) {
	t.Helper()
	if err := fault.Configure(spec, seed); err != nil {
		t.Fatalf("fault.Configure(%q): %v", spec, err)
	}
	t.Cleanup(fault.Reset)
}

// TestWorkerRecoversPanicInSink: a panic thrown by the row sink must not kill
// the worker or the process — the request fails with a typed ErrInternal, the
// pooled evaluator state is discarded, and the scheduler keeps serving.
func TestWorkerRecoversPanicInSink(t *testing.T) {
	eng := chainEngine(t, 30)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")
	pool := omega.NewEvalPool(2)
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()

	n := 0
	_, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{Pool: pool})
		},
		eachRow(func(omega.Row) error {
			n++
			if n == 3 {
				panic("sink corrupted")
			}
			return nil
		}))
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want wrapped ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "sink corrupted") {
		t.Fatalf("err %q does not carry the panic value", err)
	}
	if st := s.Stats(); st.Panics != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want Panics=1 Failed=1", st)
	}
	if ps := pool.Stats(); ps.Poisoned != 1 {
		t.Fatalf("pool stats = %+v, want the aborted bundle poisoned", ps)
	}

	// The worker survived: a follow-up request streams to completion.
	res, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{Limit: 10, Pool: pool})
		},
		discardRows)
	if err != nil || res.Rows != 10 {
		t.Fatalf("post-panic request: rows=%d err=%v", res.Rows, err)
	}
}

// TestWorkerRecoversInjectedPanic drives the same recovery path through the
// serve.quantum failpoint, the way the chaos suite does.
func TestWorkerRecoversInjectedPanic(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()

	armFaults(t, "serve.quantum=panic#1", 3)
	_, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{})
		},
		discardRows)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want wrapped ErrInternal", err)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v, want Panics=1", st)
	}
	fault.Reset()

	res, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{Limit: 5})
		},
		discardRows)
	if err != nil || res.Rows != 5 {
		t.Fatalf("post-panic request: rows=%d err=%v", res.Rows, err)
	}
}

// TestWatchdogAbortsStalledQuery: with every evaluator iteration slowed far
// past the stall budget, the watchdog must abort the request with a typed
// ErrStalled carrying the budget, and the scheduler must keep serving.
func TestWatchdogAbortsStalledQuery(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")
	const budget = 30 * time.Millisecond
	s := NewScheduler(SchedulerConfig{Workers: 1, StallBudget: budget})
	defer s.Close()

	armFaults(t, "core.row=delay:250ms", 5)
	_, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{})
		},
		discardRows)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want wrapped ErrStalled", err)
	}
	var se *StalledError
	if !errors.As(err, &se) || se.Budget != budget {
		t.Fatalf("err = %v, want *StalledError with budget %s", err, budget)
	}
	if st := s.Stats(); st.Stalled == 0 {
		t.Fatalf("stats = %+v, want Stalled > 0", st)
	}
	fault.Reset()

	res, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{Limit: 5})
		},
		discardRows)
	if err != nil || res.Rows != 5 {
		t.Fatalf("post-stall request: rows=%d err=%v", res.Rows, err)
	}
}

// TestSchedulerGapHistogram: after a stream completes, the inter-row gap
// histogram holds one observation per delivered row (the first row's gap is
// its time from the execution's start): the observability half of the
// watchdog work.
func TestSchedulerGapHistogram(t *testing.T) {
	eng := chainEngine(t, 30)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")
	s := NewScheduler(SchedulerConfig{Workers: 1})
	defer s.Close()

	res, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			return pq.Exec(ctx, omega.ExecOptions{Limit: 50})
		},
		discardRows)
	if err != nil || res.Rows != 50 {
		t.Fatalf("rows=%d err=%v", res.Rows, err)
	}
	counts, total := s.GapSnapshot()
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if total != 50 || sum != total {
		t.Fatalf("gap histogram: total %d, buckets sum %d, want 50 each", total, sum)
	}
}

// TestServerWritePathFault: an injected failure on the HTTP write path (a
// client that disconnects before the first row) fails that request alone —
// the server answers 500, stays healthy, and serves the next query cleanly.
func TestServerWritePathFault(t *testing.T) {
	srv, ts := l4allServer(t, Config{Workers: 2, Quantum: 8})

	armFaults(t, "serve.write=error#1", 11)
	q := url.Values{"q": {approxQuery}, "limit": {"20"}}
	_, _, status := ndjsonLines(t, ts.Client(), ts.URL+"/query?"+q.Encode())
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted request: status %d, want 500", status)
	}
	fault.Reset()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after write fault: %d", resp.StatusCode)
	}

	rows, done, status := ndjsonLines(t, ts.Client(), ts.URL+"/query?"+q.Encode())
	if status != http.StatusOK || done == nil || len(rows) != 20 {
		t.Fatalf("follow-up query: status=%d rows=%d done=%v", status, len(rows), done)
	}
	if st := srv.Scheduler().Stats(); st.Failed == 0 {
		t.Fatalf("scheduler stats = %+v, want the faulted request counted", st)
	}
}
