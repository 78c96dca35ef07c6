package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"regexp"
	"testing"
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
