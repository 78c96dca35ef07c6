package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omega"
)

// chainEngine builds a small engine whose transitive query produces plenty of
// rows, so scheduling tests have streams of any length they need.
func chainEngine(t *testing.T, n int) *omega.Engine {
	t.Helper()
	b := omega.NewGraphBuilder()
	names := make([]string, n)
	for i := range names {
		names[i] = "n" + string(rune('A'+i/26)) + string(rune('a'+i%26))
	}
	for i := 0; i+1 < n; i++ {
		if err := b.AddTriple(names[i], "knows", names[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return omega.NewEngine(b.Freeze(), nil)
}

// eachRow adapts a per-row callback to the scheduler's batch Sink.
func eachRow(fn func(omega.Row) error) Sink {
	return func(rows []omega.Row) error {
		for _, r := range rows {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func discardRows([]omega.Row) error { return nil }

func prepared(t *testing.T, eng *omega.Engine, text string) *omega.PreparedQuery {
	t.Helper()
	pq, err := eng.PrepareText(text)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

// TestSchedulerAdmissionOrder: with more requests than slots, no more than
// Workers of them are ever between start and the end of their stream, the
// ones that wait start in the order they were admitted, and a request that
// waited reports its wait. Each running request holds its first batch until
// the test releases it, so slots free one at a time and the start order is
// exact.
func TestSchedulerAdmissionOrder(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	const (
		workers = 2
		tasks   = 6
		limit   = 10
	)
	s := NewScheduler(SchedulerConfig{Workers: workers, Queue: tasks - workers})
	defer s.Close()

	var running, peak atomic.Int32
	started := make(chan int, tasks)
	release := make([]chan struct{}, tasks)
	results := make([]Result, tasks)
	var wg sync.WaitGroup
	launch := func(id int) {
		release[id] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Stream(context.Background(),
				func(ctx context.Context) (*omega.Rows, error) {
					n := running.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					started <- id
					return pq.Exec(ctx, omega.ExecOptions{Limit: limit})
				},
				func(rows []omega.Row) error {
					if len(rows) == 0 { // the end of the stream
						running.Add(-1)
						return nil
					}
					<-release[id]
					return nil
				})
			if err != nil {
				t.Errorf("task %d: %v", id, err)
			}
			results[id] = res
		}()
	}

	for id := 0; id < workers; id++ {
		launch(id)
	}
	for range workers {
		<-started
	}
	for id := workers; id < tasks; id++ {
		launch(id)
		waitFor(t, "the request to wait for a slot", func() bool { return s.Stats().Queued == id-workers+1 })
	}
	for id := 0; id < tasks; id++ {
		close(release[id])
		if next := id + workers; next < tasks {
			if got := <-started; got != next {
				t.Fatalf("after request %d finished, request %d started, want %d (admission order)", id, got, next)
			}
		}
	}
	wg.Wait()

	if p := peak.Load(); p != workers {
		t.Fatalf("%d requests ran at once, want at most (and at some point exactly) %d", p, workers)
	}
	for id, res := range results {
		if res.Rows != limit || res.Stats.TuplesPopped == 0 {
			t.Errorf("task %d: %d rows, %d popped; want %d rows and stats captured", id, res.Rows, res.Stats.TuplesPopped, limit)
		}
		if id >= workers && res.Stats.QueueWaitNanos <= 0 {
			t.Errorf("task %d waited for a slot but reports queue wait %d ns", id, res.Stats.QueueWaitNanos)
		}
	}
	if st := s.Stats(); st.Completed != tasks || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want %d completed, none in flight or queued", st, tasks)
	}
}

// TestSchedulerOverload: admission control rejects the request beyond
// Workers+Queue with a typed, inspectable error, before its execution starts.
func TestSchedulerOverload(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	s := NewScheduler(SchedulerConfig{Workers: 1, Queue: 1, RetryAfter: 250 * time.Millisecond})
	defer s.Close()

	gate := make(chan struct{})
	firstRow := make(chan struct{})
	var once sync.Once
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // fills the worker and the queue slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Stream(context.Background(),
				func(ctx context.Context) (*omega.Rows, error) {
					return pq.Exec(ctx, omega.ExecOptions{Limit: 8})
				},
				eachRow(func(omega.Row) error {
					once.Do(func() { close(firstRow) })
					<-gate // hold the worker so in-flight stays at capacity
					return nil
				}))
			errs <- err
		}()
	}
	<-firstRow // the first task is definitely occupying the worker
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Submitted != 2; {
		if time.Now().After(deadline) {
			t.Fatal("second task never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) {
			t.Error("rejected request must never start")
			return pq.Exec(ctx, omega.ExecOptions{})
		},
		discardRows)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request: %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v carries no *OverloadedError", err)
	}
	if oe.RetryAfter != 250*time.Millisecond || oe.InFlight != 2 {
		t.Fatalf("overload context = %+v", oe)
	}

	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("held request failed: %v", err)
		}
	}
	if st := s.Stats(); st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("stats = %+v, want 1 rejected / 2 completed", st)
	}
}

// TestSchedulerCancelWhileQueued: a request canceled before it takes a slot
// reports ErrCanceled and its start function never runs.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	s := NewScheduler(SchedulerConfig{Workers: 1, Queue: 2})
	defer s.Close()

	gate := make(chan struct{})
	firstRow := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Stream(context.Background(),
			func(ctx context.Context) (*omega.Rows, error) {
				return pq.Exec(ctx, omega.ExecOptions{Limit: 4})
			},
			eachRow(func(omega.Row) error {
				once.Do(func() { close(firstRow) })
				<-gate
				return nil
			}))
		if err != nil {
			t.Errorf("held request: %v", err)
		}
	}()
	<-firstRow

	// The request is canceled before it is submitted, so it waits dead: it
	// must be discarded without ever starting, whether it sees the
	// cancellation while waiting or as the held task's slot comes free. The
	// gate is released so the held task drains and the slot does come free.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	close(gate)
	_, err := s.Stream(ctx,
		func(ctx context.Context) (*omega.Rows, error) {
			t.Error("canceled request must never start")
			return pq.Exec(ctx, omega.ExecOptions{})
		},
		discardRows)
	if !errors.Is(err, omega.ErrCanceled) {
		t.Fatalf("canceled-in-queue request: %v, want ErrCanceled", err)
	}
	wg.Wait()
}

// TestSchedulerClose: Close drains in-flight requests, then rejects new ones.
func TestSchedulerClose(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	s := NewScheduler(SchedulerConfig{Workers: 2, Queue: 2})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Stream(context.Background(),
				func(ctx context.Context) (*omega.Rows, error) {
					return pq.Exec(ctx, omega.ExecOptions{Limit: 50})
				},
				discardRows); err != nil {
				t.Errorf("in-flight request during Close: %v", err)
			}
		}()
	}
	// Let the requests land, then close: they must all complete.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Submitted != 3; {
		if time.Now().After(deadline) {
			t.Fatal("tasks never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if _, err := s.Stream(context.Background(),
		func(ctx context.Context) (*omega.Rows, error) { return pq.Exec(ctx, omega.ExecOptions{}) },
		discardRows); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("post-Close submit: %v, want ErrSchedulerClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}
