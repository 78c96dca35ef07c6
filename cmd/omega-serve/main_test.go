package main

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"regexp"
	"testing"
	"time"

	"omega"
)

// TestListenLogsBoundAddress: with -addr :0 the kernel picks the port, so the
// log line must carry the address that was bound — dialing what it says has
// to reach the server.
func TestListenLogsBoundAddress(t *testing.T) {
	var logged bytes.Buffer
	ln, err := listen("127.0.0.1:0", &logged, "test")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "here")
	}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	m := regexp.MustCompile(`listening on (\S+) \(test\)`).FindStringSubmatch(logged.String())
	if m == nil {
		t.Fatalf("log line %q names no address", logged.String())
	}
	if _, port, err := net.SplitHostPort(m[1]); err != nil || port == "0" {
		t.Fatalf("logged address %q is not a bound address (err %v)", m[1], err)
	}
	resp, err := http.Get("http://" + m[1] + "/")
	if err != nil {
		t.Fatalf("dialing the logged address: %v", err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); string(body) != "here" {
		t.Fatalf("logged address answered %q", body)
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("server has no ReadHeaderTimeout")
	}
}

// TestHarnessCommandLine parses the command line the benchmark harness starts
// the server with (StartServer in benchmark/server.go, a module of its own
// that does not change with the server): every flag it passes, the two
// ignored ones included, must stay defined and land where main reads it.
func TestHarnessCommandLine(t *testing.T) {
	fs := flag.NewFlagSet("omega-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.CommandLine.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	argv := []string{
		"-addr", "127.0.0.1:40123",
		"-graph", "data/graph.txt",
		"-ontology", "data/ontology.txt",
		"-workers", "2",
		"-max-limit", "0",
		"-hard-mem", "1073741824",
		"-timeout", "30s",
		"-spill-dir", "work",
		"-janitor=false",
		"-quiet",
	}
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("harness command line rejected: %v", err)
	}
	if fs.NArg() != 0 {
		t.Fatalf("arguments left unparsed: %q", fs.Args())
	}
	var eo omega.ExecOptions
	if err := knobs.Apply(&eo); err != nil {
		t.Fatal(err)
	}
	if *addr != "127.0.0.1:40123" || *graphFile != "data/graph.txt" || *ontFile != "data/ontology.txt" ||
		*workers != 2 || *maxLimit != 0 || *timeout != 30*time.Second || !*quiet || eo.HardMemBytes != 1<<30 {
		t.Fatalf("parsed addr=%q graph=%q ontology=%q workers=%d max-limit=%d timeout=%v quiet=%v hard-mem=%d",
			*addr, *graphFile, *ontFile, *workers, *maxLimit, *timeout, *quiet, eo.HardMemBytes)
	}
}
