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

// Failure-hardening tests for the scheduler: panic isolation, the stuck-query
// watchdog, and degraded-mode detection. They use the process-global failpoint
// registry, so none of them may run in parallel.

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

// TestDegradedModeDetection: once DegradeAfter rejections land within the
// window, Degraded() reports true (and /statsz mirrors it); it clears when
// the window slides past the rejections.
func TestDegradedModeDetection(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")
	s := NewScheduler(SchedulerConfig{
		Workers:       1,
		Queue:         -1, // no waiting queue: one in-flight request fills the scheduler
		DegradeAfter:  2,
		DegradeWindow: time.Hour,
	})
	defer s.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.Stream(context.Background(),
			func(ctx context.Context) (*omega.Rows, error) {
				return pq.Exec(ctx, omega.ExecOptions{Limit: 1})
			},
			eachRow(func(omega.Row) error {
				close(started)
				<-block
				return nil
			}))
		done <- err
	}()
	<-started

	if s.Degraded() {
		t.Fatal("degraded before any rejection")
	}
	for i := 0; i < 2; i++ {
		_, err := s.Stream(context.Background(),
			func(ctx context.Context) (*omega.Rows, error) {
				return pq.Exec(ctx, omega.ExecOptions{})
			},
			discardRows)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("rejection %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("not degraded after DegradeAfter rejections inside the window")
	}
	if st := s.Stats(); !st.Degraded || st.Rejected != 2 {
		t.Fatalf("stats = %+v, want Degraded=true Rejected=2", st)
	}

	close(block)
	if err := <-done; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
}

// TestDegradedModeExits: degraded mode is a sliding window, not a latch —
// once DegradeWindow passes with no further rejections, admission must
// recover on its own and new requests run with untightened defaults again.
func TestDegradedModeExits(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")
	const window = 80 * time.Millisecond
	s := NewScheduler(SchedulerConfig{
		Workers:       1,
		Queue:         -1,
		DegradeAfter:  2,
		DegradeWindow: window,
	})
	defer s.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.Stream(context.Background(),
			func(ctx context.Context) (*omega.Rows, error) {
				return pq.Exec(ctx, omega.ExecOptions{Limit: 1})
			},
			eachRow(func(omega.Row) error {
				close(started)
				<-block
				return nil
			}))
		done <- err
	}()
	<-started
	for i := 0; i < 2; i++ {
		_, err := s.Stream(context.Background(),
			func(ctx context.Context) (*omega.Rows, error) {
				return pq.Exec(ctx, omega.ExecOptions{})
			},
			discardRows)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("rejection %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("not degraded after rejections inside the window")
	}

	// No further rejections: once the window slides past the recorded ones,
	// the flag must drop without any other stimulus.
	deadline := time.Now().Add(5 * time.Second)
	for s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("still degraded long after DegradeWindow passed without rejections")
		}
		time.Sleep(window / 8)
	}
	if st := s.Stats(); st.Degraded {
		t.Fatalf("stats = %+v, want Degraded=false after recovery", st)
	}

	close(block)
	if err := <-done; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
}

// TestSchedulerGapHistogram: after a stream completes, the p99 inter-row gap
// must be populated — the observability half of the watchdog work.
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
	if st := s.Stats(); st.GapP99Ms <= 0 {
		t.Fatalf("stats = %+v, want GapP99Ms > 0", st)
	}
}

// TestServerWritePathFault: an injected failure on the HTTP write path (a
// client that disconnects before the first row) fails that request alone —
// the server answers 500, stays healthy, and serves the next query cleanly.
func TestServerWritePathFault(t *testing.T) {
	spillDir := t.TempDir()
	srv, ts := l4allServer(t, spillDir, Config{Workers: 2, Quantum: 8})

	armFaults(t, "serve.write=error#1", 11)
	q := url.Values{"q": {spillQuery}, "limit": {"20"}}
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
