package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"omega"
	"omega/internal/l4all"
)

// approxQuery is a ranked APPROX query whose distance-aware run parks tuples
// above ψ and admits them later, so the serving tests exercise the ψ ceiling.
const approxQuery = "(?X) <- APPROX (Librarians, type-.job-.next, ?X)"

func l4allServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, ont := l4all.Generate(l4all.L1)
	cfg.Engine = omega.NewEngine(g, ont).WithOptions(omega.Options{DistanceAware: true})
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// rowLine is one streamed NDJSON answer row: the shape the hand-written
// encoder (encode.go) is held to, as encoding/json writes it.
type rowLine struct {
	Vars   []string       `json:"vars"`
	Labels []string       `json:"labels"`
	Nodes  []omega.NodeID `json:"nodes"`
	Dist   int            `json:"dist"`
}

// ndjsonLines GETs the URL and decodes every NDJSON line.
func ndjsonLines(t *testing.T, client *http.Client, u string) (rows []rowLine, done *doneLine, status int) {
	t.Helper()
	resp, err := client.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil, resp.StatusCode
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case probe["done"] == true:
			var d doneLine
			if err := json.Unmarshal(line, &d); err != nil {
				t.Fatal(err)
			}
			done = &d
		case probe["error"] != nil:
			t.Fatalf("stream error line: %s", line)
		default:
			var r rowLine
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return rows, done, resp.StatusCode
}

// TestServerEndToEnd is the smoke test of the serving stack: concurrent
// NDJSON queries — one of them canceled mid-stream — correct ranked rows for
// the rest, per-request stats in the terminator, and every request's pooled
// state handed back once the server has drained.
func TestServerEndToEnd(t *testing.T) {
	srv, ts := l4allServer(t, Config{Workers: 3, Queue: 8})

	q := url.Values{"q": {approxQuery}, "limit": {"60"}}
	base := ts.URL + "/query?" + q.Encode()

	// Reference rows from one request.
	wantRows, done, status := ndjsonLines(t, ts.Client(), base)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if done == nil || done.Rows != len(wantRows) || len(wantRows) != 60 {
		t.Fatalf("reference request: %d rows, done=%+v", len(wantRows), done)
	}
	if done.Stats.TuplesPopped == 0 {
		t.Fatalf("done line carries no stats: %+v", done)
	}
	for i := 1; i < len(wantRows); i++ {
		if wantRows[i].Dist < wantRows[i-1].Dist {
			t.Fatalf("ranked order violated at row %d", i)
		}
	}

	// Concurrent identical queries must all see the identical stream, while a
	// canceled request aborts mid-stream without disturbing them.
	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, done, status := ndjsonLines(t, ts.Client(), base)
			if status != http.StatusOK || done == nil {
				t.Errorf("client %d: status %d done=%v", i, status, done)
				return
			}
			if len(rows) != len(wantRows) {
				t.Errorf("client %d: %d rows, want %d", i, len(rows), len(wantRows))
				return
			}
			for j := range rows {
				if rows[j].Dist != wantRows[j].Dist || rows[j].Labels[0] != wantRows[j].Labels[0] {
					t.Errorf("client %d row %d: %+v, want %+v", i, j, rows[j], wantRows[j])
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base, nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return // canceled before headers; also fine
		}
		defer resp.Body.Close()
		// Read a couple of rows, then abandon the stream mid-flight.
		sc := bufio.NewScanner(resp.Body)
		for i := 0; i < 2 && sc.Scan(); i++ {
		}
		cancel()
	}()
	wg.Wait()

	// Drain the server: after Close returns, no request is in flight and
	// every state bundle taken from the pool went back to it or was discarded.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ps := srv.Pool().Stats(); ps.Gets == 0 || ps.Gets != ps.Puts+ps.Poisoned {
		t.Fatalf("pool stats after drain: %+v", ps)
	}
	st := srv.Scheduler().Stats()
	if st.InFlight != 0 || st.Submitted == 0 {
		t.Fatalf("scheduler stats after drain: %+v", st)
	}
}

// TestServerOverloadResponds503: a full scheduler turns admission rejections
// into 503 + Retry-After, without executing the query.
func TestServerOverloadResponds503(t *testing.T) {
	srv, ts := l4allServer(t, Config{Workers: 1, Queue: -1, RetryAfter: 2 * time.Second})

	// Occupy the single worker via the scheduler directly, deterministically.
	gate := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	errCh := make(chan error, 1)
	go func() {
		_, err := srv.Scheduler().Stream(context.Background(),
			func(ctx context.Context) (*omega.Rows, error) {
				pq, perr := srv.PlanCache().Get(approxQuery, nil)
				if perr != nil {
					return nil, perr
				}
				return pq.Exec(ctx, omega.ExecOptions{Limit: 4})
			},
			eachRow(func(omega.Row) error {
				once.Do(func() { close(running) })
				<-gate
				return nil
			}))
		errCh <- err
	}()
	<-running

	resp, err := ts.Client().Get(ts.URL + "/query?" + url.Values{"q": {approxQuery}, "limit": {"1"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Fatalf("body %q does not name the overload", body)
	}

	close(gate)
	if err := <-errCh; err != nil {
		t.Fatalf("held request: %v", err)
	}
}

// TestServerParameterHandling: bad inputs are 400s; healthz and statsz serve;
// limit/mode parameters shape the stream.
func TestServerParameterHandling(t *testing.T) {
	_, ts := l4allServer(t, Config{Workers: 2, Queue: 4})
	client := ts.Client()

	for _, tc := range []struct {
		name, u string
		status  int
	}{
		{"missing q", "/query", http.StatusBadRequest},
		{"bad query", "/query?q=" + url.QueryEscape("not a query"), http.StatusBadRequest},
		{"bad mode", "/query?mode=zigzag&q=" + url.QueryEscape(approxQuery), http.StatusBadRequest},
		{"bad limit", "/query?limit=x&q=" + url.QueryEscape(approxQuery), http.StatusBadRequest},
		{"bad timeout", "/query?timeout=x&q=" + url.QueryEscape(approxQuery), http.StatusBadRequest},
	} {
		resp, err := client.Get(ts.URL + tc.u)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// limit caps the stream.
	rows, done, status := ndjsonLines(t, client, ts.URL+"/query?"+url.Values{"q": {approxQuery}, "limit": {"5"}}.Encode())
	if status != http.StatusOK || len(rows) != 5 || done == nil || done.Rows != 5 {
		t.Fatalf("limit=5: status %d, %d rows, done %+v", status, len(rows), done)
	}

	// mode override: the exact variant of the APPROX query is a sub-stream.
	exactURL := ts.URL + "/query?" + url.Values{"q": {"(?X) <- (Librarians, type-.job-.next, ?X)"}, "mode": {"exact"}}.Encode()
	exactRows, _, status := ndjsonLines(t, client, exactURL)
	if status != http.StatusOK {
		t.Fatalf("exact mode: status %d", status)
	}
	if len(exactRows) == 0 || len(exactRows) >= len(rowsAll(t, client, ts.URL)) {
		t.Fatalf("exact %d rows vs approx %d — override had no effect", len(exactRows), len(rowsAll(t, client, ts.URL)))
	}

	// healthz / statsz.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %d", err, resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = client.Get(ts.URL + "/statsz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz: %v / %d", err, resp.StatusCode)
	}
	var payload statszPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if payload.Scheduler.Submitted == 0 || payload.PlanCache.Misses == 0 {
		t.Fatalf("statsz empty: %+v", payload)
	}
	if payload.Pool == nil || payload.Pool.Gets == 0 {
		t.Fatalf("pool stats missing or idle: %+v", payload.Pool)
	}
}

// TestServerDefaultTimeout: Config.Timeout is the deadline of a request that
// carries no timeout= parameter — a 504 when it trips before the first row,
// an in-band error line when it trips mid-stream — and timeout= overrides it.
func TestServerDefaultTimeout(t *testing.T) {
	_, ts := l4allServer(t, Config{Workers: 1, Timeout: 200 * time.Millisecond})
	client := ts.Client()
	u := func(params url.Values) string {
		params.Set("q", approxQuery)
		return ts.URL + "/query?" + params.Encode()
	}

	// Every answer costs 500 ms: the default deadline trips before the first.
	armFaults(t, "core.row=delay:500ms", 1)
	if _, body, status := queryStream(t, client, u(url.Values{"limit": {"1"}})); status != http.StatusGatewayTimeout || !strings.Contains(body, "deadline") {
		t.Fatalf("slow first row: status %d body %q, want 504 naming the deadline", status, body)
	}
	// timeout= overrides the default: the same request now has time for two rows.
	rows, done, status := ndjsonLines(t, client, u(url.Values{"limit": {"2"}, "timeout": {"10s"}}))
	if status != http.StatusOK || len(rows) != 2 || done == nil {
		t.Fatalf("timeout=10s: status %d, %d rows, done %+v", status, len(rows), done)
	}

	// Every answer costs 50 ms: rows stream before the default deadline ends
	// the response with an error line.
	armFaults(t, "core.row=delay:50ms", 1)
	n, errLine, status := queryStream(t, client, u(url.Values{"limit": {"50"}}))
	if status != http.StatusOK || n == 0 || n == 50 || !strings.Contains(errLine, "deadline") {
		t.Fatalf("mid-stream deadline: status %d, %d rows, error line %q", status, n, errLine)
	}
}

func rowsAll(t *testing.T, client *http.Client, base string) []rowLine {
	t.Helper()
	rows, _, status := ndjsonLines(t, client, base+"/query?"+url.Values{"q": {approxQuery}}.Encode())
	if status != http.StatusOK {
		t.Fatalf("approx stream: status %d", status)
	}
	return rows
}

// TestServerPoolAmortises: repeated requests through the server reuse pooled
// evaluator state (visible in /statsz) and the plan cache (hits climb), while
// responses stay byte-identical.
func TestServerPoolAmortises(t *testing.T) {
	_, ts := l4allServer(t, Config{Workers: 2, Queue: 4})
	client := ts.Client()
	base := ts.URL + "/query?" + url.Values{"q": {approxQuery}, "limit": {"30"}}.Encode()

	var ref []rowLine
	for i := 0; i < 5; i++ {
		rows, done, status := ndjsonLines(t, client, base)
		if status != http.StatusOK || done == nil {
			t.Fatalf("request %d: status %d", i, status)
		}
		if i == 0 {
			ref = rows
			continue
		}
		if len(rows) != len(ref) {
			t.Fatalf("request %d: %d rows, want %d", i, len(rows), len(ref))
		}
		for j := range rows {
			if rows[j].Dist != ref[j].Dist || rows[j].Labels[0] != ref[j].Labels[0] {
				t.Fatalf("request %d row %d differs: %+v vs %+v", i, j, rows[j], ref[j])
			}
		}
	}

	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var payload statszPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if payload.PlanCache.Hits < 4 {
		t.Fatalf("plan cache hits = %d, want ≥ 4", payload.PlanCache.Hits)
	}
	if payload.Pool == nil || payload.Pool.Reuses == 0 {
		t.Fatalf("pool never recycled state across requests: %+v", payload.Pool)
	}
	// The requests ran one at a time: one bundle served them all and sits on
	// the free list with the capacity they grew.
	if payload.Pool.Idle != 1 || payload.Pool.IdleBytes <= 0 {
		t.Fatalf("/statsz pool = %+v, want one idle bundle and its retained bytes", payload.Pool)
	}
}

// TestDoneLineAccountsShortRequests: a request that ends before the
// evaluator's first 512-operation accounting sample (RELAX Q10 top-100 is 427
// tuple operations, every EXACT study query far fewer) still reports what it
// held: the done line of every study query in every mode carries a non-zero
// mem_peak_bytes.
func TestDoneLineAccountsShortRequests(t *testing.T) {
	_, ts := l4allServer(t, Config{Workers: 1, Queue: 4})
	client := ts.Client()
	for _, q := range l4all.StudyQueries() {
		for _, mode := range []string{"exact", "approx", "relax"} {
			u := ts.URL + "/query?" + url.Values{"q": {q.Text}, "mode": {mode}, "limit": {"100"}}.Encode()
			_, done, status := ndjsonLines(t, client, u)
			if status != http.StatusOK || done == nil {
				t.Fatalf("%s/%s: status %d, done %v", q.ID, mode, status, done)
			}
			if done.Stats.MemPeakBytes <= 0 {
				t.Errorf("%s/%s: done line accounts mem_peak_bytes = %d after %d tuples added, %d popped",
					q.ID, mode, done.Stats.MemPeakBytes, done.Stats.TuplesAdded, done.Stats.TuplesPopped)
			}
		}
	}
}

// TestServerBackendParameter covers the backend= knob end to end: an invalid
// value is a 400, a forced bulk request answers the exact variable-subject
// query with the same row set as forced ranked, and the done-line stats
// report which engine ran.
func TestServerBackendParameter(t *testing.T) {
	_, ts := l4allServer(t, Config{Workers: 2, Queue: 4})
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/query?" + url.Values{"q": {approxQuery}, "backend": {"zigzag"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("backend=zigzag: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}

	const bulkQuery = "(?X, ?Y) <- (?X, job.type, ?Y)"
	fetch := func(backend string) ([]rowLine, *doneLine) {
		t.Helper()
		rows, done, status := ndjsonLines(t, client, ts.URL+"/query?"+url.Values{"q": {bulkQuery}, "backend": {backend}}.Encode())
		if status != http.StatusOK || done == nil {
			t.Fatalf("backend=%s: status %d, done %+v", backend, status, done)
		}
		return rows, done
	}
	rankedRows, rankedDone := fetch("ranked")
	bulkRows, bulkDone := fetch("bulk")
	if rankedDone.Stats.Backend != "ranked" {
		t.Errorf("backend=ranked: stats backend %q", rankedDone.Stats.Backend)
	}
	if bulkDone.Stats.Backend != "bulk" {
		t.Errorf("backend=bulk: stats backend %q", bulkDone.Stats.Backend)
	}
	key := func(r rowLine) string {
		return fmt.Sprintf("%v|%d", r.Nodes, r.Dist)
	}
	want := map[string]int{}
	for _, r := range rankedRows {
		want[key(r)]++
	}
	if len(bulkRows) != len(rankedRows) {
		t.Fatalf("bulk %d rows, ranked %d", len(bulkRows), len(rankedRows))
	}
	for _, r := range bulkRows {
		if want[key(r)] == 0 {
			t.Fatalf("bulk row %v not in ranked set", r)
		}
		want[key(r)]--
	}

	// Auto on the same exhaustive exact query also routes to bulk (the L1
	// population clears the planner's payoff threshold).
	_, autoDone, status := ndjsonLines(t, client, ts.URL+"/query?"+url.Values{"q": {bulkQuery}}.Encode())
	if status != http.StatusOK || autoDone == nil || autoDone.Stats.Backend != "bulk" {
		t.Fatalf("auto: status %d, stats %+v, want bulk", status, autoDone)
	}
}

// TestStaleParallelParamIgnored: the retired parallel knob (and its
// parallelism alias) is no knob any more, so a client that still sends it is
// served — not refused — and served exactly what the same request without it
// gets: the same rows in the same order, and a done line whose counters are
// the same, with no worker fields added. Only the timings, which no two runs
// share, are zeroed before the comparison. Pooling is off so each request's
// accounted peak is its own.
func TestStaleParallelParamIgnored(t *testing.T) {
	_, ts := l4allServer(t, Config{Workers: 2, Queue: 4, PoolSize: -1})
	client := ts.Client()

	// stream returns the response's row lines verbatim and its done line
	// decoded generically, so a field this build does not know still shows.
	stream := func(params url.Values) ([]string, map[string]any) {
		t.Helper()
		resp, err := client.Get(ts.URL + "/query?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%v: status %d (%s), want 200", params, resp.StatusCode, strings.TrimSpace(string(body)))
		}
		var rows []string
		var done map[string]any
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var probe map[string]any
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("%v: bad NDJSON line %q: %v", params, sc.Bytes(), err)
			}
			if probe["done"] == nil && probe["error"] == nil {
				rows = append(rows, sc.Text())
				continue
			}
			if probe["done"] != true {
				t.Fatalf("%v: stream ended with %s", params, sc.Bytes())
			}
			delete(probe, "request_id")
			delete(probe, "elapsed_ms")
			if st, ok := probe["stats"].(map[string]any); ok {
				for _, k := range []string{"queue_wait_ms", "compile_ms", "ttfr_ms"} {
					delete(st, k)
				}
			}
			done = probe
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if done == nil {
			t.Fatalf("%v: no done line", params)
		}
		return rows, done
	}

	const scan = "(?X, ?Y) <- (?X, job.type, ?Y)"
	for _, base := range []url.Values{
		{"q": {approxQuery}, "limit": {"50"}},
		{"q": {scan}, "backend": {"ranked"}},
		{"q": {scan}, "backend": {"bulk"}},
	} {
		wantRows, wantDone := stream(base)
		for _, stale := range [][2]string{{"parallel", "8"}, {"parallelism", "8"}, {"parallel", "x"}} {
			params := url.Values{stale[0]: {stale[1]}}
			for k, v := range base {
				params[k] = v
			}
			rows, done := stream(params)
			if len(rows) != len(wantRows) {
				t.Fatalf("%v: %d rows, %d without %s", params, len(rows), len(wantRows), stale[0])
			}
			for i := range rows {
				if rows[i] != wantRows[i] {
					t.Fatalf("%v: row %d is %s, without %s %s", params, i, rows[i], stale[0], wantRows[i])
				}
			}
			if !reflect.DeepEqual(done, wantDone) {
				t.Fatalf("%v: done line %v, without %s %v", params, done, stale[0], wantDone)
			}
		}
	}
}
