package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"omega"
	"omega/internal/l4all"
)

// Flush-discipline tests: what leaves the server in which write. The handler
// is wrapped so every Write of a /query response body is recorded per request
// (the wrapper exposes Unwrap, so flushing and write deadlines still reach
// the real connection).

const scanQuery = "(?X, ?Y) <- (?X, next+, ?Y)" // 6 355 rows on L1, bulk backend

// bodyWrite is one Write of a response body.
type bodyWrite struct {
	lines, bytes int
}

type recordingWriter struct {
	http.ResponseWriter
	mu      sync.Mutex
	writes  []bodyWrite
	onWrite func(nth int) // called before the nth (0-based) write goes out
}

func (r *recordingWriter) Write(b []byte) (int, error) {
	r.mu.Lock()
	nth := len(r.writes)
	r.writes = append(r.writes, bodyWrite{lines: bytes.Count(b, []byte("\n")), bytes: len(b)})
	r.mu.Unlock()
	if r.onWrite != nil {
		r.onWrite(nth)
	}
	return r.ResponseWriter.Write(b)
}

func (r *recordingWriter) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (r *recordingWriter) snapshot() []bodyWrite {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]bodyWrite(nil), r.writes...)
}

// recordingServer serves srv behind a wrapper that keeps one recordingWriter
// per X-Request-Id; hook, when non-nil, becomes each writer's onWrite.
type recordingServer struct {
	ts   *httptest.Server
	mu   sync.Mutex
	byID map[string]*recordingWriter
}

func newRecordingServer(t *testing.T, cfg Config, hook func(id string, nth int)) (*Server, *recordingServer) {
	t.Helper()
	g, ont := l4all.Generate(l4all.L1)
	cfg.Engine = omega.NewEngine(g, ont).WithOptions(omega.Options{DistanceAware: true})
	srv := New(cfg)
	rs := &recordingServer{byID: map[string]*recordingWriter{}}
	rs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		rw := &recordingWriter{ResponseWriter: w}
		if hook != nil {
			rw.onWrite = func(nth int) { hook(id, nth) }
		}
		rs.mu.Lock()
		rs.byID[id] = rw
		rs.mu.Unlock()
		srv.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		rs.ts.Close()
		srv.Close()
	})
	return srv, rs
}

func (rs *recordingServer) writes(id string) []bodyWrite {
	rs.mu.Lock()
	rw := rs.byID[id]
	rs.mu.Unlock()
	if rw == nil {
		return nil
	}
	return rw.snapshot()
}

// get runs one query to completion and returns its row count.
func (rs *recordingServer) get(t *testing.T, id string, params url.Values) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rs.ts.URL+"/query?"+params.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", id)
	resp, err := rs.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", id, resp.StatusCode)
	}
	rows, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		switch {
		case bytes.HasPrefix(sc.Bytes(), []byte(`{"vars"`)):
			rows++
		case bytes.HasPrefix(sc.Bytes(), []byte(`{"done":true`)):
			done = true
		default:
			t.Fatalf("%s: unexpected line %q", id, sc.Text())
		}
	}
	if err := sc.Err(); err != nil || !done {
		t.Fatalf("%s: stream ended without a done line (err %v)", id, err)
	}
	return rows
}

// TestFlushRankedCoalesces: a ranked stream sends its first row alone — time
// to first answer never rides behind a batch — and the rest in the writes the
// execution's idle hook asks for, one each time the engine has done another
// 4 096 tuple operations with rows pending, plus the last with the done line.
// The hold bound is counted in work, not time, so the write count of every
// L1 study query in RELAX and APPROX top-100 is exact. Top-100 on L1 is the
// first row and then the rest with the done line; top-1000 streams run long
// enough for idle writes and 32 KiB ones in between. APPROX Q8, Q9 and Q12
// at 1 000 rows take 4 writes, not the 5 they took before wildcard runs held
// back the successors that cannot answer at their own distance: they reach
// 1 000 rows in fewer tuple operations, so one idle write fewer falls due.
func TestFlushRankedCoalesces(t *testing.T) {
	want := map[string]int{ // writes per response, done line included
		"Q3/relax/100": 2, "Q3/approx/100": 2, "Q3/relax/1000": 3, "Q3/approx/1000": 4,
		"Q8/relax/100": 1, "Q8/approx/100": 2, "Q8/relax/1000": 1, "Q8/approx/1000": 4, // RELAX Q8 has no answer
		"Q9/relax/100": 2, "Q9/approx/100": 2, "Q9/relax/1000": 2, "Q9/approx/1000": 4,
		"Q10/relax/100": 2, "Q10/approx/100": 2, "Q10/relax/1000": 4, "Q10/approx/1000": 4,
		"Q11/relax/100": 2, "Q11/approx/100": 2, "Q11/relax/1000": 4, "Q11/approx/1000": 4,
		"Q12/relax/100": 2, "Q12/approx/100": 2, "Q12/relax/1000": 3, "Q12/approx/1000": 4,
	}
	_, rs := newRecordingServer(t, Config{Workers: 1}, nil)
	for _, q := range l4all.StudyQueries() {
		for _, limit := range []string{"100", "1000"} {
			for _, mode := range []string{"relax", "approx"} {
				id := q.ID + "/" + mode + "/" + limit
				rows := rs.get(t, id, url.Values{"q": {q.Text}, "mode": {mode}, "limit": {limit}})
				ws := rs.writes(id)
				total := 0
				for _, w := range ws {
					total += w.lines
				}
				switch {
				case total != rows+1:
					t.Errorf("%s: writes carry %d lines, want %d rows and a done line", id, total, rows)
				case rows > 0 && ws[0].lines != 1:
					t.Errorf("%s: first write carries %d lines, want the first row alone", id, ws[0].lines)
				case len(ws) != want[id]:
					t.Errorf("%s: %d writes for %d rows, want %d: %+v", id, len(ws), rows, want[id], ws)
				}
			}
		}
	}
}

// TestFlushBulkScanCoalesces: an exhaustive scan on the bulk backend sends
// its first row alone — time to first answer never rides behind a batch —
// and the rest in large writes: at most a hundredth as many writes as rows,
// none larger than the byte threshold plus the row that crossed it.
func TestFlushBulkScanCoalesces(t *testing.T) {
	_, rs := newRecordingServer(t, Config{Workers: 1}, nil)
	rows := rs.get(t, "scan", url.Values{"q": {scanQuery}, "backend": {"bulk"}})
	if rows < 5000 {
		t.Fatalf("scan returned %d rows — too few to say anything about coalescing", rows)
	}
	ws := rs.writes("scan")
	if ws[0].lines != 1 {
		t.Fatalf("first write carries %d lines, want the first row alone", ws[0].lines)
	}
	if len(ws) > rows/100 {
		t.Fatalf("%d writes for %d rows, want at most %d", len(ws), rows, rows/100)
	}
	total := 0
	for i, w := range ws {
		total += w.lines
		if w.bytes > flushBytes+1024 {
			t.Fatalf("write %d is %d bytes, over the %d-byte threshold by more than a row", i, w.bytes, flushBytes)
		}
	}
	if total != rows+1 {
		t.Fatalf("writes carry %d lines, want %d rows and a done line", total, rows)
	}
}

// TestFlushBeforeYield: with one worker and two scans in flight, a turn that
// hands the worker to the other request flushes first — no row waits in a
// buffer while the server works for someone else. The first request's first
// write is held until the second is admitted, so every turn after it yields.
func TestFlushBeforeYield(t *testing.T) {
	const quantum = 16
	var srv *Server
	bothIn := make(chan struct{})
	srv, rs := newRecordingServer(t, Config{Workers: 1, Queue: 2, Quantum: quantum},
		func(id string, nth int) {
			if id == "a" && nth == 0 {
				<-bothIn
			}
		})
	params := url.Values{"q": {scanQuery}, "backend": {"bulk"}}
	var wg sync.WaitGroup
	rowsOf := map[string]*int{"a": new(int), "b": new(int)}
	for _, id := range []string{"a", "b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			*rowsOf[id] = rs.get(t, id, params)
		}(id)
		if id == "a" {
			// b must queue behind a, not race it for the worker.
			waitFor(t, "request a to start streaming", func() bool { return len(rs.writes("a")) > 0 })
		}
	}
	waitFor(t, "both requests admitted", func() bool { return srv.Scheduler().Stats().Submitted == 2 })
	close(bothIn)
	wg.Wait()

	a, b := rs.writes("a"), rs.writes("b")
	// a's first turn: row 1 alone, then the other quantum-1 rows pushed out
	// because b was runnable when the turn ended.
	if a[0].lines != 1 || a[1].lines != quantum-1 {
		t.Fatalf("a's first turn went out as %+v, want 1 row then %d", a[:2], quantum-1)
	}
	// While both were in flight every turn yielded, so no write of either
	// response held more than a turn's rows. b finished its rows no earlier
	// than a started its last turn, so a's writes are all from shared time
	// except possibly the tail; check the first half of each.
	for id, ws := range map[string][]bodyWrite{"a": a, "b": b} {
		for i, w := range ws[:len(ws)/2] {
			if w.lines > quantum {
				t.Fatalf("%s: write %d carries %d rows with the other request waiting, want at most a turn's %d", id, i, w.lines, quantum)
			}
		}
	}
	if *rowsOf["a"] != *rowsOf["b"] || *rowsOf["a"] < 5000 {
		t.Fatalf("rows: a=%d b=%d", *rowsOf["a"], *rowsOf["b"])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// bareWriter is a ResponseWriter that can neither flush nor take a deadline
// (what benchmark/layers hands the handler).
type bareWriter struct {
	h      http.Header
	writes int
}

func (b *bareWriter) Header() http.Header         { return b.h }
func (b *bareWriter) Write(p []byte) (int, error) { b.writes++; return len(p), nil }
func (b *bareWriter) WriteHeader(int)             {}

// TestRowWriterSteadyStateAllocs: once a response is under way, taking a
// batch, encoding it and writing it out allocates nothing (same style as
// TestTraceDisabledNoAllocs).
func TestRowWriterSteadyStateAllocs(t *testing.T) {
	srv, _ := newRecordingServer(t, Config{Workers: 1}, nil)
	rows := make([]omega.Row, 64)
	for i := range rows {
		rows[i] = omega.Row{
			Vars:   []string{"X", "Y"},
			Nodes:  []omega.NodeID{omega.NodeID(i), omega.NodeID(100000 + i)},
			Labels: []string{fmt.Sprintf("Alumni_%d_Episode_1", i), fmt.Sprintf("Alumni_%d_Episode_%d", i, i+2)},
		}
	}
	w := &bareWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	rw := newRowWriter(req.Context(), w, srv.metrics, time.Minute)
	defer rw.release()
	// Warm up: the first row's own write, and the discovery that w neither
	// flushes nor takes deadlines.
	if err := rw.deliver(rows, true); err != nil {
		t.Fatal(err)
	}
	before := w.writes
	allocs := testing.AllocsPerRun(100, func() {
		if err := rw.deliver(rows, false); err != nil { // buffered, or out by the byte threshold
			t.Fatal(err)
		}
		// The engine worked on: what is pending goes.
		rw.idle()
		if err := rw.deliver(rows[:1], true); err != nil { // a turn that yields: written at once
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady batch-encode-write cycle allocates %.0f times, want 0", allocs)
	}
	if w.writes == before {
		t.Fatal("the cycle never wrote")
	}
}

// TestRowWriterIdle: the rows pending when the execution's idle hook fires
// leave in that call's write; a call with nothing pending writes nothing.
func TestRowWriterIdle(t *testing.T) {
	srv, _ := newRecordingServer(t, Config{Workers: 1}, nil)
	rows := []omega.Row{
		{Vars: []string{"X"}, Nodes: []omega.NodeID{1}, Labels: []string{"a"}},
		{Vars: []string{"X"}, Nodes: []omega.NodeID{2}, Labels: []string{"b"}, Dist: 1},
		{Vars: []string{"X"}, Nodes: []omega.NodeID{3}, Labels: []string{"c"}, Dist: 1},
	}
	w := &recordingWriter{ResponseWriter: &bareWriter{h: http.Header{}}}
	rw := newRowWriter(httptest.NewRequest(http.MethodGet, "/query", nil).Context(), w, srv.metrics, 0)
	defer rw.release()
	lines := func() []int {
		var out []int
		for _, bw := range w.snapshot() {
			out = append(out, bw.lines)
		}
		return out
	}
	rw.idle() // nothing yet
	if err := rw.deliver(rows, false); err != nil {
		t.Fatal(err)
	}
	if got := lines(); !slices.Equal(got, []int{1}) {
		t.Fatalf("after the first batch: writes of %v lines, want the first row alone", got)
	}
	rw.idle()
	if got := lines(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("after an idle call: writes of %v lines, want the two pending rows in the second", got)
	}
	rw.idle()
	if err := rw.deliver(rows[:1], false); err != nil {
		t.Fatal(err)
	}
	if got := lines(); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("an idle call with nothing pending, then a batch: writes of %v lines, want no new write", got)
	}
	if err := rw.finish([]byte(`{"done":true}`)); err != nil {
		t.Fatal(err)
	}
	if got := lines(); !slices.Equal(got, []int{1, 2, 2}) {
		t.Fatalf("after finish: writes of %v lines, want the held row with the done line", got)
	}
}

// TestHandlerOnBareWriter: the handler works on a ResponseWriter that is
// neither an http.Flusher nor deadline-capable, stall budget armed or not.
func TestHandlerOnBareWriter(t *testing.T) {
	for _, stall := range []time.Duration{0, time.Minute} {
		srv, _ := newRecordingServer(t, Config{Workers: 1, StallBudget: stall, Timeout: 30 * time.Second}, nil)
		w := &bareWriter{h: http.Header{}}
		req := httptest.NewRequest(http.MethodGet, "/query?"+url.Values{"q": {scanQuery}, "backend": {"bulk"}}.Encode(), nil)
		srv.Handler().ServeHTTP(w, req)
		if w.writes < 3 || w.h.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("stall=%s: %d writes, content type %q", stall, w.writes, w.h.Get("Content-Type"))
		}
	}
}

// smallBufListener shrinks every accepted connection's send buffer, so a
// reader that stops draining blocks the server's writes after a few
// kilobytes instead of after whatever the loopback autotuned to.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestStalledReaderReleasesWorker: a client that asks for an exhaustive scan
// and never reads blocks the response write where no context cancellation
// reaches it. The write deadline must cut it off within the stall budget,
// count it as a stall, and free the one worker for the next request.
func TestStalledReaderReleasesWorker(t *testing.T) {
	const budget = 150 * time.Millisecond
	g, ont := l4all.Generate(l4all.L1)
	srv := New(Config{
		Engine:      omega.NewEngine(g, ont).WithOptions(omega.Options{DistanceAware: true}),
		Workers:     1,
		StallBudget: budget,
	})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	q := url.Values{"q": {scanQuery}, "backend": {"bulk"}}
	if _, err := fmt.Fprintf(conn, "GET /query?%s HTTP/1.1\r\nHost: omega\r\n\r\n", q.Encode()); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	// ... and never read.

	waitFor(t, "the stalled request to be cut off", func() bool {
		st := srv.Scheduler().Stats()
		return st.Stalled >= 1 && st.InFlight == 0
	})
	if took := time.Since(sent); took > 10*budget {
		t.Fatalf("worker released after %s, budget %s", took, budget)
	}
	if st := srv.Scheduler().Stats(); st.Stalled != 1 || st.Failed != 1 {
		t.Fatalf("scheduler stats = %+v, want exactly one stalled, failed request", st)
	}

	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var payload statszPayload
	err = json.NewDecoder(resp.Body).Decode(&payload)
	resp.Body.Close()
	if err != nil || payload.Scheduler.Stalled != 1 {
		t.Fatalf("/statsz scheduler = %+v (err %v), want stalled = 1", payload.Scheduler, err)
	}

	// The one worker is free again.
	rows, done, status := ndjsonLines(t, ts.Client(), ts.URL+"/query?"+url.Values{"q": {approxQuery}, "limit": {"5"}}.Encode())
	if status != http.StatusOK || done == nil || len(rows) != 5 {
		t.Fatalf("request after the stall: status=%d rows=%d done=%v", status, len(rows), done)
	}

	// What did reach the socket is a well-formed prefix: whole row lines.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	raw, _ := io.ReadAll(conn)
	if i := bytes.Index(raw, []byte("\r\n\r\n")); i < 0 || !strings.Contains(string(raw[:i]), "200 OK") {
		t.Fatalf("stalled response has no 200 header: %q", raw[:min(len(raw), 200)])
	}
}
