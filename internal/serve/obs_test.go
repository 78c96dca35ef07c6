package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"omega/internal/obs"
)

// scrapeMetrics GETs /metricsz and runs it through the strict exposition
// parser, so every scrape in this file doubles as a format check.
func scrapeMetrics(t *testing.T, client *http.Client, base string) map[string]*obs.ExpoFamily {
	t.Helper()
	resp, err := client.Get(base + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metricsz content type %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("strict parse of /metricsz: %v", err)
	}
	return fams
}

// counterValue returns the value of the family's first sample matching the
// given labels (all must be present), or -1.
func counterValue(fams map[string]*obs.ExpoFamily, name string, labels map[string]string) float64 {
	f, ok := fams[name]
	if !ok {
		return -1
	}
sample:
	for _, s := range f.Samples {
		for k, v := range labels {
			if s.Labels[k] != v {
				continue sample
			}
		}
		return s.Value
	}
	return -1
}

// TestMetricszGolden drives a mixed workload (hits, misses, a 400, traced and
// untraced requests) and then asserts the exposition parses strictly and every
// metric family the observability contract names is present with sane values.
func TestMetricszGolden(t *testing.T) {
	_, ts := l4allServer(t, "", Config{Workers: 2, Queue: 4})
	client := ts.Client()

	q := url.QueryEscape(spillQuery)
	for i := 0; i < 3; i++ {
		if _, done, status := ndjsonLines(t, client, ts.URL+"/query?limit=5&q="+q); status != http.StatusOK || done == nil {
			t.Fatalf("query %d: status=%d done=%v", i, status, done)
		}
	}
	// One traced request and one parse failure for the 200/400 code series.
	if _, done, status := ndjsonLines(t, client, ts.URL+"/query?limit=5&trace=1&q="+q); status != http.StatusOK || done == nil || done.Trace == nil {
		t.Fatalf("traced query: status=%d done=%+v", status, done)
	}
	if resp, err := client.Get(ts.URL + "/query?q=not+a+query"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad query status %d", resp.StatusCode)
		}
	}

	fams := scrapeMetrics(t, client, ts.URL)
	for _, name := range []string{
		"omega_build_info",
		"omega_process_start_time_seconds",
		"omega_sched_submitted_total",
		"omega_sched_rejected_total",
		"omega_sched_completed_total",
		"omega_sched_failed_total",
		"omega_sched_panics_total",
		"omega_sched_stalled_total",
		"omega_sched_in_flight",
		"omega_sched_queued",
		"omega_sched_degraded",
		"omega_sched_row_gap_seconds",
		"omega_plan_cache_entries",
		"omega_plan_cache_hits_total",
		"omega_plan_cache_misses_total",
		"omega_plan_cache_evictions_total",
		"omega_plan_cache_failures_total",
		"omega_pool_gets_total",
		"omega_pool_reuses_total",
		"omega_pool_idle",
		"omega_pool_idle_bytes",
		"omega_fault_hits_total",
		"omega_fault_fires_total",
		"omega_requests_total",
		"omega_request_duration_seconds",
		"omega_request_ttfr_seconds",
		"omega_request_queue_wait_seconds",
		"omega_request_compile_seconds",
		"omega_serve_response_rows_total",
		"omega_serve_response_flushes_total",
		"omega_serve_response_bytes_total",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s missing from /metricsz", name)
		}
	}
	if v := counterValue(fams, "omega_requests_total", map[string]string{"code": "200"}); v < 4 {
		t.Errorf("omega_requests_total{code=200} = %v, want >= 4", v)
	}
	if v := counterValue(fams, "omega_requests_total", map[string]string{"code": "400"}); v < 1 {
		t.Errorf("omega_requests_total{code=400} = %v, want >= 1", v)
	}
	if v := counterValue(fams, "omega_sched_completed_total", nil); v < 4 {
		t.Errorf("omega_sched_completed_total = %v, want >= 4", v)
	}
	if v := counterValue(fams, "omega_plan_cache_hits_total", nil); v < 3 {
		t.Errorf("omega_plan_cache_hits_total = %v, want >= 3 (same query repeated)", v)
	}
	// Four ranked top-5 responses: every row leaves in its own write, and the
	// done line in one more.
	if v := counterValue(fams, "omega_serve_response_rows_total", nil); v != 20 {
		t.Errorf("omega_serve_response_rows_total = %v, want 20", v)
	}
	if v := counterValue(fams, "omega_serve_response_flushes_total", nil); v != 24 {
		t.Errorf("omega_serve_response_flushes_total = %v, want 24 (20 rows + 4 done lines)", v)
	}
	if v := counterValue(fams, "omega_serve_response_bytes_total", nil); v < 20*40 {
		t.Errorf("omega_serve_response_bytes_total = %v, want at least 40 bytes a row", v)
	}
	// The requests ran one at a time, so one bundle served them all and is
	// back on the free list, holding at least its four minimum-size tables.
	if v := counterValue(fams, "omega_pool_idle", nil); v != 1 {
		t.Errorf("omega_pool_idle = %v, want 1", v)
	}
	if v := counterValue(fams, "omega_pool_idle_bytes", nil); v < 1024 {
		t.Errorf("omega_pool_idle_bytes = %v, want the idle bundle's retained capacity", v)
	}
	if v := counterValue(fams, "omega_build_info", map[string]string{}); v != 1 {
		t.Errorf("omega_build_info = %v, want 1", v)
	}
	if f := fams["omega_build_info"]; f != nil {
		for _, lbl := range []string{"version", "revision", "go_version"} {
			if f.Samples[0].Labels[lbl] == "" {
				t.Errorf("omega_build_info missing %s label: %+v", lbl, f.Samples[0].Labels)
			}
		}
	}
	// The duration histogram must account every request, 200s and 400s alike.
	var durCount float64
	if f := fams["omega_request_duration_seconds"]; f != nil {
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_count") {
				durCount += s.Value
			}
		}
	}
	if durCount < 5 {
		t.Errorf("omega_request_duration_seconds total count = %v, want >= 5", durCount)
	}
}

// TestServerTraceEndToEnd exercises the trace=1 surface over HTTP: the client
// request ID is echoed in the response header and the done line, and the span
// tree covers the full request path — request → admission/plan/queue/stream →
// exec → conjunct → close.
func TestServerTraceEndToEnd(t *testing.T) {
	_, ts := l4allServer(t, "", Config{Workers: 2, Queue: 4})
	client := ts.Client()

	req, err := http.NewRequest("GET", ts.URL+"/query?limit=10&trace=1&q="+url.QueryEscape(spillQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "test-req-42")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "test-req-42" {
		t.Fatalf("X-Request-Id not echoed: %q", got)
	}

	var done *doneLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		if probe["done"] == true {
			done = &doneLine{}
			if err := json.Unmarshal(sc.Bytes(), done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if done == nil {
		t.Fatal("no done line")
	}
	if done.RequestID != "test-req-42" {
		t.Fatalf("done line request_id = %q", done.RequestID)
	}
	if done.Trace == nil {
		t.Fatal("done line has no trace")
	}
	if done.Trace.ID != "test-req-42" {
		t.Fatalf("trace ID = %q, want the request ID", done.Trace.ID)
	}
	for _, name := range []string{
		obs.SpanRequest, obs.SpanAdmission, obs.SpanPlan, obs.SpanQueue,
		obs.SpanStream, obs.SpanQuantum, obs.SpanExec, obs.SpanConjunct, obs.SpanClose,
	} {
		if done.Trace.Node(name) == nil {
			t.Errorf("span %q missing from HTTP trace", name)
		}
	}
	if done.Stats.TTFRMs <= 0 {
		t.Errorf("done line ttfr_ms = %v, want > 0", done.Stats.TTFRMs)
	}
	if done.Stats.QueueWaitMs <= 0 {
		t.Errorf("done line queue_wait_ms = %v, want > 0", done.Stats.QueueWaitMs)
	}
	if done.Stats.CompileMs <= 0 {
		t.Errorf("done line compile_ms = %v, want > 0", done.Stats.CompileMs)
	}

	// An untraced request must not carry a trace and still gets an ID.
	resp2, err := client.Get(ts.URL + "/query?limit=1&q=" + url.QueryEscape(spillQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Error("untraced request got no generated X-Request-Id")
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Error("untraced request carries a trace field")
	}
}

// TestMetricszMidStream scrapes /metricsz while a query is mid-stream: the
// scrape must parse strictly and report the in-flight request, and the stream
// must finish unharmed afterwards.
func TestMetricszMidStream(t *testing.T) {
	// Row production is slowed with a delay fault so the query is still in
	// flight when the scrape lands — otherwise the server outruns the client
	// into the response buffer and the task completes immediately.
	armFaults(t, "core.row=delay:1ms", 13)
	_, ts := l4allServer(t, "", Config{Workers: 1, Queue: 4, Quantum: 2})
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/query?q=" + url.QueryEscape(spillQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // at least one row is out
		t.Fatalf("first row: %v", err)
	}

	fams := scrapeMetrics(t, client, ts.URL)
	if v := counterValue(fams, "omega_sched_in_flight", nil); v < 1 {
		t.Errorf("omega_sched_in_flight = %v mid-stream, want >= 1", v)
	}

	// Drain the stream; it must end with a done line despite the scrape.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rest, []byte(`"done":true`)) {
		t.Fatal("stream did not finish with a done line after mid-stream scrape")
	}
}

// TestMetricszConcurrentChaos hammers the server with queries while fault
// injection misbehaves and concurrent goroutines scrape /metricsz and
// /statsz. Run under -race this is the data-race gate for the whole
// observability surface; every scrape must still parse strictly.
func TestMetricszConcurrentChaos(t *testing.T) {
	armFaults(t, "serve.quantum=error@0.05;core.row=delay:200us@0.01", 7)
	_, ts := l4allServer(t, t.TempDir(), Config{Workers: 2, Queue: 8, Quantum: 4})
	client := ts.Client()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fams := scrapeMetrics(t, client, ts.URL)
				if _, ok := fams["omega_fault_fires_total"]; !ok {
					t.Error("fault families missing during chaos")
					return
				}
				resp, err := client.Get(ts.URL + "/statsz")
				if err != nil {
					t.Errorf("/statsz: %v", err)
					return
				}
				var payload statszPayload
				if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
					t.Errorf("/statsz decode: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}
	q := url.QueryEscape(spillQuery)
	for i := 0; i < 24; i++ {
		tr := ""
		if i%3 == 0 {
			tr = "&trace=1"
		}
		resp, err := client.Get(fmt.Sprintf("%s/query?limit=20%s&q=%s", ts.URL, tr, q))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()

	fams := scrapeMetrics(t, client, ts.URL)
	if v := counterValue(fams, "omega_fault_hits_total", map[string]string{"site": "serve.quantum"}); v < 1 {
		t.Errorf("omega_fault_hits_total{site=serve.quantum} = %v, want >= 1", v)
	}
}

// TestStatszFaultAndBuildSections pins the two /statsz additions: the armed
// fault registry and the build stamp.
func TestStatszFaultAndBuildSections(t *testing.T) {
	armFaults(t, "serve.write=error#1", 1)
	_, ts := l4allServer(t, "", Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload statszPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := payload.Faults["serve.write"]; !ok {
		t.Errorf("faults section missing armed site: %+v", payload.Faults)
	}
	if payload.Build.GoVersion == "" || payload.Build.GoVersion == "unknown" {
		t.Errorf("build section has no Go version: %+v", payload.Build)
	}
	if payload.Build.StartTime.IsZero() {
		t.Errorf("build section has no start time: %+v", payload.Build)
	}
}

// TestSlowQueryLog: a threshold of one nanosecond makes every request slow;
// the log must carry a parseable JSON record correlated by request ID.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := log.New(lockedWriter{&mu, &buf}, "", 0)
	_, ts := l4allServer(t, "", Config{Workers: 1, SlowQuery: time.Nanosecond, Log: logger})

	req, _ := http.NewRequest("GET", ts.URL+"/query?limit=3&q="+url.QueryEscape(spillQuery), nil)
	req.Header.Set("X-Request-Id", "slow-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	idx := strings.Index(out, "slow query ")
	if idx < 0 {
		t.Fatalf("no slow-query line in log:\n%s", out)
	}
	jsonPart := out[idx+len("slow query "):]
	if end := strings.IndexByte(jsonPart, '\n'); end >= 0 {
		jsonPart = jsonPart[:end]
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(jsonPart), &line); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, jsonPart)
	}
	if line["request_id"] != "slow-1" {
		t.Errorf("slow-query request_id = %v", line["request_id"])
	}
	if line["query"] != spillQuery {
		t.Errorf("slow-query query = %v", line["query"])
	}
	if line["elapsed_ms"] == nil {
		t.Errorf("slow-query line missing elapsed_ms: %v", line)
	}
}

// lockedWriter serialises concurrent log writes for test capture.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
