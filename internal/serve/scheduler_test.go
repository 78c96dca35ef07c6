package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"omega"
)

// chainEngine builds a small engine whose transitive query produces plenty of
// rows, so scheduling tests have streams long enough to slice into quanta.
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
	return func(rows []omega.Row, _ bool) error {
		for _, r := range rows {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func discardRows([]omega.Row, bool) error { return nil }

func prepared(t *testing.T, eng *omega.Engine, text string) *omega.PreparedQuery {
	t.Helper()
	pq, err := eng.PrepareText(text)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

// TestSchedulerFairDraining: with more concurrent requests than workers and a
// small quantum, the run queue round-robins — no request streams two quanta
// back to back while peers wait, and every request produces rows before any
// finishes. A single worker makes the rotation deterministic (with several
// workers the rotation still holds per queue pop, but a worker descheduled by
// the OS mid-quantum would make wall-clock assertions flaky).
func TestSchedulerFairDraining(t *testing.T) {
	eng := chainEngine(t, 40)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	const (
		tasks   = 6
		quantum = 16
		limit   = 200
	)
	s := NewScheduler(SchedulerConfig{Workers: 1, Queue: tasks + 2, Quantum: quantum})
	defer s.Close()

	var mu sync.Mutex
	var rowSeq []int // task id per delivered row, in global delivery order
	// The worker holds its first row until every task has been admitted, so
	// the rotation below covers all of them from the start.
	admitted := make(chan struct{})

	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			res, err := s.Stream(context.Background(),
				func(ctx context.Context) (*omega.Rows, error) {
					return pq.Exec(ctx, omega.ExecOptions{Limit: limit})
				},
				eachRow(func(omega.Row) error {
					<-admitted
					mu.Lock()
					rowSeq = append(rowSeq, id)
					mu.Unlock()
					return nil
				}))
			if err != nil {
				t.Errorf("task %d: %v", id, err)
				return
			}
			if res.Rows != limit {
				t.Errorf("task %d: %d rows, want %d", id, res.Rows, limit)
			}
			if res.Stats.TuplesPopped == 0 {
				t.Errorf("task %d: stats not captured", id)
			}
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Submitted != tasks; {
		if time.Now().After(deadline) {
			t.Fatal("tasks never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	close(admitted)
	wg.Wait()

	// Every task delivers its first row before any task delivers its last:
	// the heavy streams interleave instead of running to completion serially.
	first := map[int]int{}
	for pos, id := range rowSeq {
		if _, ok := first[id]; !ok {
			first[id] = pos
		}
	}
	if len(first) != tasks {
		t.Fatalf("only %d/%d tasks delivered rows", len(first), tasks)
	}
	last := map[int]int{}
	for pos, id := range rowSeq {
		last[id] = pos
	}
	firstCompletion := len(rowSeq)
	for _, pos := range last {
		if pos < firstCompletion {
			firstCompletion = pos
		}
	}
	lastFirst := 0
	for _, pos := range first {
		if pos > lastFirst {
			lastFirst = pos
		}
	}
	if lastFirst >= firstCompletion {
		t.Fatalf("a task finished before every peer started (last first-row at %d of %d)", lastFirst, len(rowSeq))
	}
	// Round-robin: before the tail of the run (where finished peers leave the
	// queue), no task receives two consecutive quanta.
	run, prev := 0, -1
	for pos, id := range rowSeq {
		if pos >= len(rowSeq)-tasks*quantum {
			break // tail: peers may have drained, runs legitimately lengthen
		}
		if id == prev {
			run++
			if run > quantum {
				t.Fatalf("task %d streamed %d rows back to back at position %d with peers queued", id, run, pos)
			}
		} else {
			run, prev = 1, id
		}
	}
	st := s.Stats()
	if st.Completed != tasks || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want %d completed, 0 in flight", st, tasks)
	}
}

// TestSchedulerOverload: admission control rejects the request beyond
// Workers+Queue with a typed, inspectable error, before its execution starts.
func TestSchedulerOverload(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	s := NewScheduler(SchedulerConfig{Workers: 1, Queue: 1, Quantum: 4, RetryAfter: 250 * time.Millisecond})
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

// TestSchedulerCancelWhileQueued: a request canceled before its first worker
// turn reports ErrCanceled and its start function never runs.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	eng := chainEngine(t, 20)
	pq := prepared(t, eng, "(?X, ?Y) <- (?X, knows+, ?Y)")

	s := NewScheduler(SchedulerConfig{Workers: 1, Queue: 2, Quantum: 4})
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

	// The request is canceled before it is submitted, so it is queued dead:
	// the worker must discard it at pick time, without ever starting it.
	// (Cancellation is observed at the task's next worker turn — a canceled
	// request never outlives Stream, but it waits for its turn to be
	// discarded.) The gate is released so the held task drains and the
	// worker reaches the dead request.
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

	s := NewScheduler(SchedulerConfig{Workers: 2, Queue: 2, Quantum: 8})
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
