package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"omega"
	"omega/internal/fault"
)

// TestBrokerDefaults pins the configuration contract: budget 0 with no
// GOMEMLIMIT disables the broker, negative disables explicitly, and an
// explicit budget is the one the monitor watches.
func TestBrokerDefaults(t *testing.T) {
	if goMemLimit() == 0 {
		if b := newMemBroker(0, 0); b != nil {
			b.Close()
			t.Fatal("broker enabled with neither MemBudget nor GOMEMLIMIT set")
		}
	}
	if b := newMemBroker(-1, 0); b != nil {
		b.Close()
		t.Fatal("broker enabled with negative MemBudget")
	}
	b := newMemBroker(4000, time.Hour)
	if b == nil {
		t.Fatal("broker disabled with explicit budget")
	}
	defer b.Close()
	if s := b.Stats(); s.BudgetBytes != 4000 {
		t.Fatalf("budget = %d, want 4000", s.BudgetBytes)
	}
}

// longChain builds an engine over a single long a-labelled chain: the
// unbounded traversal n0 -a+-> ?X visits every node, growing an accounted
// footprint of tens of bytes per node, while limit-k probes stay tiny.
func longChain(t *testing.T, n int) *omega.Engine {
	t.Helper()
	b := omega.NewGraphBuilder()
	for i := 0; i < n; i++ {
		if err := b.AddTriple(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return omega.NewEngine(b.Freeze(), nil)
}

// queryStream GETs the URL and splits the NDJSON stream into row count,
// terminal error line (if any) and HTTP status, without failing on in-band
// errors the way ndjsonLines does.
func queryStream(t *testing.T, client *http.Client, u string) (rows int, errLine string, status int) {
	t.Helper()
	resp, err := client.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return 0, strings.TrimSpace(string(body)), resp.StatusCode
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Bytes(), err)
		}
		switch {
		case probe["done"] == true:
		case probe["error"] != nil:
			errLine, _ = probe["error"].(string)
		default:
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return rows, errLine, resp.StatusCode
}

// TestBrokerVictimKill is the pressure-storm acceptance scenario: one
// unbounded query grows past the server-wide budget while small queries keep
// arriving. The broker must victimize the oversized execution with the typed
// memory-budget error, the small queries must keep streaming throughout, and
// /statsz must reflect the abort.
func TestBrokerVictimKill(t *testing.T) {
	// Delay every emitted row: the unbounded query (thousands of rows) is
	// held in flight long enough for the monitor to act, while limit-3
	// probes pay three delays and stay fast.
	if err := fault.Configure("core.row=delay:50us", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s := New(Config{
		Engine:           longChain(t, 20000),
		Workers:          4,
		MemBudget:        32 << 10,
		MemCheckInterval: 2 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	client := ts.Client()

	big := make(chan string, 1)
	go func() {
		rows, errLine, status := queryStream(t, client, ts.URL+"/query?q="+url.QueryEscape("(?X) <- (n0, a+, ?X)"))
		if status != http.StatusOK && status != http.StatusInsufficientStorage {
			big <- fmt.Sprintf("status %d", status)
			return
		}
		if rows >= 20000 {
			big <- "ran to completion"
			return
		}
		big <- errLine
	}()

	// Steady small-query load while the oversized one grows and dies.
	small := ts.URL + "/query?q=" + url.QueryEscape("(?X) <- (n0, a+, ?X)") + "&limit=3"
	deadline := time.After(20 * time.Second)
	var bigErr string
	for done := false; !done; {
		select {
		case bigErr = <-big:
			done = true
		case <-deadline:
			t.Fatal("oversized query neither finished nor was victimized within 20s")
		default:
			rows, errLine, status := queryStream(t, client, small)
			if status != http.StatusOK || errLine != "" || rows != 3 {
				t.Fatalf("small query suffered during pressure: status=%d rows=%d err=%q", status, rows, errLine)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !strings.Contains(bigErr, "memory budget") {
		t.Fatalf("oversized query ended with %q, want the typed memory-budget abort", bigErr)
	}

	// One more round after the kill: the server is still healthy.
	if rows, errLine, status := queryStream(t, client, small); status != http.StatusOK || errLine != "" || rows != 3 {
		t.Fatalf("small query failed after victim kill: status=%d rows=%d err=%q", status, rows, errLine)
	}

	bs := s.broker.Stats()
	if bs.VictimKills < 1 {
		t.Fatalf("VictimKills = %d, want >= 1", bs.VictimKills)
	}
	if bs.BudgetAborts < 1 {
		t.Fatalf("BudgetAborts = %d, want >= 1", bs.BudgetAborts)
	}
	if bs.PeakLiveBytes <= 32<<10 {
		t.Fatalf("PeakLiveBytes = %d, want over the %d budget", bs.PeakLiveBytes, 32<<10)
	}

	// The same figures must surface through the endpoint.
	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload statszPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.MemBroker == nil || payload.MemBroker.VictimKills < 1 {
		t.Fatalf("/statsz mem_broker = %+v, want victim_kills >= 1", payload.MemBroker)
	}
	if payload.Runtime.HeapAllocBytes == 0 {
		t.Fatal("/statsz runtime.heap_alloc_bytes = 0, want live heap figures")
	}
}

// TestAdmissionHasOneSource: with the broker armed, the scheduler's
// Workers+Queue bound is still the only thing that turns a request away. Two
// requests hold both workers mid-stream; the third gets 503 + Retry-After
// from the scheduler, while the broker watches the two running requests
// without rejecting anything.
func TestAdmissionHasOneSource(t *testing.T) {
	// Every row is delayed, so an unbounded query over a long chain stays in
	// flight until its client goes away.
	if err := fault.Configure("core.row=delay:1ms", 1); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s := New(Config{Engine: longChain(t, 20000), Workers: 2, Queue: -1, MemBudget: 1 << 30})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Close()
	}()
	client := ts.Client()
	u := ts.URL + "/query?q=" + url.QueryEscape("(?X) <- (n0, a+, ?X)")

	for i := 0; i < 2; i++ {
		resp, err := client.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
			t.Fatalf("held request %d: first row: %v", i, err)
		}
	}

	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("third request: status %d, Retry-After %q (body %q), want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if st := s.Scheduler().Stats(); st.Rejected != 1 {
		t.Fatalf("scheduler stats = %+v, want the rejection counted there", st)
	}
	if bs := s.broker.Stats(); bs.InFlight != 2 {
		t.Fatalf("broker stats = %+v, want both held requests registered", bs)
	}
}

// TestBrokerHardWatermarkCountsAbort: a request whose own hard watermark
// fires (no victim kill involved) must map to 507 before any row, and still
// land in the broker's budget_aborts counter.
func TestBrokerHardWatermarkCountsAbort(t *testing.T) {
	s := New(Config{Engine: longChain(t, 20000), Workers: 2, MemBudget: 1 << 30})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Close()
	}()
	client := ts.Client()

	// maxtuples-style probe: hardmem so small the first footprint sample
	// crosses it. Rows may already have streamed (the stream reports the
	// abort in-band) or not (507); both must carry the typed message.
	u := ts.URL + "/query?q=" + url.QueryEscape("(?X) <- (n0, a+, ?X)") + "&hardmem=1024"
	_, errLine, status := queryStream(t, client, u)
	if status != http.StatusOK && status != http.StatusInsufficientStorage {
		t.Fatalf("status = %d, want 200 (in-band abort) or 507", status)
	}
	if !strings.Contains(errLine, "memory budget") {
		t.Fatalf("error = %q, want the typed memory-budget abort", errLine)
	}
	if bs := s.broker.Stats(); bs.BudgetAborts != 1 {
		t.Fatalf("BudgetAborts = %d, want 1", bs.BudgetAborts)
	}
}
