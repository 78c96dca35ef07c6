package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// requestTimeout bounds one request on the client side; the server's own
// -timeout (30s) fires first, so reaching this one means the server is gone.
const requestTimeout = 60 * time.Second

// doneLine is the part of the server's terminal NDJSON object the ledger
// reads: the success form ({"done":true,...}) and the in-band failure form
// ({"error":...}).
type doneLine struct {
	Done  bool   `json:"done"`
	Error string `json:"error"`
	Rows  int    `json:"rows"`
	Stats struct {
		TuplesAdded  int64   `json:"tuples_added"`
		TuplesPopped int64   `json:"tuples_popped"`
		Phases       int64   `json:"phases"`
		Deferred     int64   `json:"deferred"`
		Reinjected   int64   `json:"reinjected"`
		MemPeakBytes int64   `json:"mem_peak_bytes"`
		Backend      string  `json:"backend"`
		QueueWaitMs  float64 `json:"queue_wait_ms"`
		CompileMs    float64 `json:"compile_ms"`
	} `json:"stats"`
	Trace *spanNode `json:"trace"` // present on trace=1 requests
}

// spanNode is one node of the span tree a trace=1 request returns. The done
// line wraps the tree as {"root": ...}; decoding it into a node leaves the
// wrapper's Name empty and its tree under Root.
type spanNode struct {
	Name     string      `json:"name"`
	StartMs  float64     `json:"start_ms"`
	DurMs    float64     `json:"dur_ms"`
	Children []*spanNode `json:"children"`
	Root     *spanNode   `json:"root"`
}

// classTrace is a server span tree with the class of the request it traced.
type classTrace struct {
	Class string
	Tree  *spanNode
}

// Reply is what one request produced, as the client saw it.
type Reply struct {
	First time.Time // first answer line read (done line for an empty answer)
	End   time.Time // done line read
	Done  doneLine
	Shape Shape
}

// Shape is the order-independent fingerprint of a response that golden.json
// pins: the row count, how many rows came at each distance, and a hash of the
// set of answer tuples. Hist and the count are fixed by the query's semantics
// whatever order ties come in; Hash is compared only for exhaustive requests,
// where the whole answer set is fixed too.
type Shape struct {
	Rows int    `json:"rows"`
	Hist []int  `json:"hist"` // Hist[d] = rows at distance d
	Hash uint64 `json:"hash,string,omitempty"`
}

// Conn is one generator connection: a loopback socket driven by exactly one
// goroutine, with no transport machinery between the generator and the wire.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader // the socket
	lr   *bufio.Reader // the current response body, line by line
	// gaps, when non-nil, collects the time between successive answer lines
	// in microseconds (traced runs only: it costs a clock read per row).
	gaps *[]float64
}

// Dial opens a connection to addr.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10), lr: bufio.NewReaderSize(nil, 1<<20)}, nil
}

// Close closes the socket.
func (c *Conn) Close() {
	if c.c != nil {
		c.c.Close()
	}
}

// redial replaces a socket whose stream position is unknown after a failure.
func (c *Conn) redial() error {
	c.Close()
	n, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.c = nil
		return err
	}
	c.c = n
	c.br.Reset(n)
	return nil
}

// roundTrip writes wire and reads the response head.
func (c *Conn) roundTrip(wire []byte) (*http.Response, error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return nil, err
		}
	}
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.c.Write(wire); err != nil {
		return nil, err
	}
	return http.ReadResponse(c.br, nil)
}

// Get fetches a small JSON endpoint (/statsz).
func (c *Conn) Get(path string) ([]byte, error) {
	resp, err := c.roundTrip([]byte("GET " + path + " HTTP/1.1\r\nHost: omega\r\n\r\n"))
	if err != nil {
		_ = c.redial()
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		_ = c.redial()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// Query sends one /query request and reads its NDJSON stream to the end. Any
// transport failure, non-200 status, in-band error line or malformed stream
// is an error; the connection is redialled so the next request starts clean.
func (c *Conn) Query(wire []byte) (Reply, error) {
	rep, err := c.query(wire)
	if err != nil {
		_ = c.redial()
	}
	return rep, err
}

func (c *Conn) query(wire []byte) (rep Reply, err error) {
	resp, err := c.roundTrip(wire)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	c.lr.Reset(resp.Body)
	var last time.Time
	lastDist := 0
	for {
		line, rerr := c.lr.ReadSlice('\n')
		if rerr != nil {
			return rep, fmt.Errorf("stream ended without a done line: %w", rerr)
		}
		if !bytes.HasPrefix(line, rowPrefix) {
			rep.End = time.Now()
			if rep.First.IsZero() {
				rep.First = rep.End
			}
			if err := json.Unmarshal(line, &rep.Done); err != nil {
				return rep, fmt.Errorf("terminal line: %w", err)
			}
			break
		}
		if rep.Shape.Rows == 0 {
			rep.First = time.Now()
			last = rep.First
		} else if c.gaps != nil {
			now := time.Now()
			*c.gaps = append(*c.gaps, float64(now.Sub(last).Nanoseconds())/1e3)
			last = now
		}
		key, dist, ok := parseRow(line)
		if !ok {
			return rep, fmt.Errorf("malformed row %q", line)
		}
		if dist < lastDist {
			return rep, fmt.Errorf("row %d: distance fell from %d to %d", rep.Shape.Rows, lastDist, dist)
		}
		lastDist = dist
		for len(rep.Shape.Hist) <= dist {
			rep.Shape.Hist = append(rep.Shape.Hist, 0)
		}
		rep.Shape.Hist[dist]++
		rep.Shape.Hash += mix64(key)
		rep.Shape.Rows++
	}
	// Consume the chunked terminator so the socket is at the next response.
	if _, err := c.lr.ReadSlice('\n'); !errors.Is(err, io.EOF) {
		return rep, fmt.Errorf("data after the terminal line (%v)", err)
	}
	if rep.Done.Error != "" || !rep.Done.Done {
		return rep, fmt.Errorf("error line after %d rows: %s", rep.Shape.Rows, rep.Done.Error)
	}
	if rep.Done.Rows != rep.Shape.Rows {
		return rep, fmt.Errorf("done line counts %d rows, stream carried %d", rep.Done.Rows, rep.Shape.Rows)
	}
	return rep, nil
}

var rowPrefix = []byte(`{"vars":`)

// parseRow reads the tail of an answer line, `..."nodes":[a,b],"dist":d}`,
// without a JSON decoder: an exhaustive scan streams 650k rows per rotation
// and the generator must stay well ahead of the server. key folds the node
// ids of the tuple; ok is false when the tail has another form.
func parseRow(line []byte) (key uint64, dist int, ok bool) {
	i := len(line) - 1
	for i >= 0 && (line[i] == '\n' || line[i] == '\r') {
		i--
	}
	if i < 0 || line[i] != '}' {
		return 0, 0, false
	}
	i--
	dist, i, ok = backInt(line, i)
	const distTag = `],"dist":`
	if !ok || i < len(distTag) || string(line[i-len(distTag)+1:i+1]) != distTag {
		return 0, 0, false
	}
	i -= len(distTag)
	// Node ids, last to first; fold them first to last.
	var ids [8]int
	n := 0
	for {
		var v int
		v, i, ok = backInt(line, i)
		if !ok || n == len(ids) {
			return 0, 0, false
		}
		ids[n] = v
		n++
		if i >= 0 && line[i] == ',' {
			i--
			continue
		}
		break
	}
	const nodesTag = `"nodes":[`
	if i < len(nodesTag)-1 || string(line[i-len(nodesTag)+1:i+1]) != nodesTag {
		return 0, 0, false
	}
	for n > 0 {
		n--
		key = key*1000003 + uint64(ids[n]) + 1
	}
	return key, dist, true
}

// backInt parses the unsigned decimal that ends at line[i] and returns the
// index before its first digit.
func backInt(line []byte, i int) (v, next int, ok bool) {
	mul := 1
	start := i
	for i >= 0 && line[i] >= '0' && line[i] <= '9' {
		v += int(line[i]-'0') * mul
		mul *= 10
		i--
	}
	return v, i, i < start
}

// mix64 is the splitmix64 finaliser; summing it over a set of tuple keys
// gives a hash that does not depend on the order of the set.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
