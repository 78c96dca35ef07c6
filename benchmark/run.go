package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omega/benchmark/stats"
)

// Window accumulates what one stretch of load produced. Each connection
// records into a Window of its own; merge folds them.
type Window struct {
	Attempted, Failed int
	Errors            []string // the first few failures, for the report
	OK                int      // requests that completed and verified
	Rows              int64    // answer rows of those
	Wall              time.Duration
	Blocks            []Block

	Lat, TTFA map[string][]float64 // ms, by class
	Lag       []float64            // ms the generator sent after the due time (open loop)
	Gaps      []float64            // µs between successive answer lines (traced runs)

	// From the done lines.
	PeakAcct                                    int64
	Added, Popped, Deferred, Reinjected, Phases int64
	Bulk                                        int
	QueueWait                                   []float64 // ms
	CompileMs                                   float64
	Traces                                      []classTrace // server span trees (trace=1 windows)
}

// Block is one unit of identical work inside a window: a fixed number of whole
// rotations of a closed loop, or one pattern of the open loop. The throughput
// and CPU figures are read per block and the lower quartile over blocks is
// reported, so a slow stretch of the machine spoils the blocks it covers and
// not the run.
type Block struct {
	Wall time.Duration
	CPU  float64 // seconds of server CPU (all threads) spent during the block
	OK   int     // requests completed in it
	Rows int64   // answer rows of those
}

func newWindow() *Window {
	return &Window{Lat: map[string][]float64{}, TTFA: map[string][]float64{}}
}

const maxErrors = 5

func (w *Window) fail(r *Request, err error) {
	w.Attempted++
	w.Failed++
	if len(w.Errors) < maxErrors {
		w.Errors = append(w.Errors, fmt.Sprintf("%s %s limit=%d %q: %v", r.Class, r.Mode, r.Limit, r.Text, err))
	}
}

// record books one request. from is the instant its latency counts from: the
// send time in a closed loop, the due time in an open loop.
func (w *Window) record(r *Request, from time.Time, rep Reply, golden map[string]Shape) {
	want, ok := golden[r.Key()]
	err := fmt.Errorf("no golden entry")
	if ok {
		err = Check(want, rep.Shape, r.Limit == 0)
	}
	if err != nil {
		w.fail(r, err)
		return
	}
	w.Attempted++
	w.OK++
	w.Rows += int64(rep.Shape.Rows)
	w.Lat[r.Class] = append(w.Lat[r.Class], ms(stats.DueLatency(from, rep.End)))
	w.TTFA[r.Class] = append(w.TTFA[r.Class], ms(stats.DueLatency(from, rep.First)))
	st := &rep.Done.Stats
	if st.MemPeakBytes > w.PeakAcct {
		w.PeakAcct = st.MemPeakBytes
	}
	w.Added += st.TuplesAdded
	w.Popped += st.TuplesPopped
	w.Deferred += st.Deferred
	w.Reinjected += st.Reinjected
	w.Phases += st.Phases
	if st.Backend == "bulk" {
		w.Bulk++
	}
	w.QueueWait = append(w.QueueWait, st.QueueWaitMs)
	w.CompileMs += st.CompileMs
	if t := rep.Done.Trace; t != nil && t.Root != nil {
		w.Traces = append(w.Traces, classTrace{r.Class, t.Root})
	}
}

func (w *Window) merge(o *Window) {
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	for _, e := range o.Errors {
		if len(w.Errors) < maxErrors {
			w.Errors = append(w.Errors, e)
		}
	}
	w.OK += o.OK
	w.Rows += o.Rows
	w.Wall += o.Wall
	w.Blocks = append(w.Blocks, o.Blocks...)
	for c, xs := range o.Lat {
		w.Lat[c] = append(w.Lat[c], xs...)
	}
	for c, xs := range o.TTFA {
		w.TTFA[c] = append(w.TTFA[c], xs...)
	}
	w.Lag = append(w.Lag, o.Lag...)
	w.Gaps = append(w.Gaps, o.Gaps...)
	if o.PeakAcct > w.PeakAcct {
		w.PeakAcct = o.PeakAcct
	}
	w.Added += o.Added
	w.Popped += o.Popped
	w.Deferred += o.Deferred
	w.Reinjected += o.Reinjected
	w.Phases += o.Phases
	w.Bulk += o.Bulk
	w.QueueWait = append(w.QueueWait, o.QueueWait...)
	w.CompileMs += o.CompileMs
	w.Traces = append(w.Traces, o.Traces...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Load drives one server with one workload. at is the position in the
// workload's rotation; it only moves forward, so the cold pass, the warm-up
// and the window see the request list in one continuous order.
type Load struct {
	W      *Workload
	Srv    *Server
	Conns  []*Conn
	Golden map[string]Shape
	Traced bool // send trace=1 and time every answer line
	// BlockPatterns is how many patterns make one Block of a closed loop:
	// enough that a block lasts about blockTarget (see Calibrate).
	BlockPatterns int
	at            int
}

// blockTarget is the least a closed-loop block should last: long enough that
// reading the server's CPU clocks at its edges costs under a thousandth of
// it, short enough that a 15 s window holds dozens.
const blockTarget = 250 * time.Millisecond

// NewLoad dials the workload's connections.
func NewLoad(w *Workload, srv *Server, golden map[string]Shape) (*Load, error) {
	l := &Load{W: w, Srv: srv, Golden: golden, BlockPatterns: 1}
	for i := 0; i < w.Conns; i++ {
		c, err := Dial(srv.Addr)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.Conns = append(l.Conns, c)
	}
	return l, nil
}

// Close closes the connections.
func (l *Load) Close() {
	for _, c := range l.Conns {
		c.Close()
	}
}

func (l *Load) wire(r *Request) []byte {
	if l.Traced {
		return r.traced
	}
	return r.wire
}

func (l *Load) request(i int) *Request { return l.W.Rotation[i%len(l.W.Rotation)] }

// Sequential sends n requests one after another on the first connection:
// the cold pass of every workload and the whole of a closed loop. It closes a
// Block every BlockPatterns patterns.
func (l *Load) Sequential(n int, win *Window) {
	c := l.Conns[0]
	if l.Traced {
		c.gaps = &win.Gaps
		defer func() { c.gaps = nil }()
	}
	per := l.BlockPatterns * l.W.Pattern
	edge, cpu := time.Now(), l.Srv.CPUSeconds()
	ok, rows := win.OK, win.Rows
	for i := 0; i < n; i++ {
		r := l.request(l.at)
		l.at++
		sent := time.Now()
		rep, err := c.Query(l.wire(r))
		if err != nil {
			win.fail(r, err)
		} else {
			win.record(r, sent, rep, l.Golden)
		}
		if (i+1)%per == 0 {
			now, cpuNow := time.Now(), l.Srv.CPUSeconds()
			win.Blocks = append(win.Blocks, Block{now.Sub(edge), cpuNow - cpu, win.OK - ok, win.Rows - rows})
			edge, cpu, ok, rows = now, cpuNow, win.OK, win.Rows
		}
	}
}

// Paced sends n requests at the workload's fixed rate, request i being due
// at start + i/rate whatever happened to the ones before it. Each connection
// takes the next unsent request when it is free, waits for the due time if it
// is early, and books the latency from the due time; a connection that is
// late books the lateness as generator lag as well.
func (l *Load) Paced(n int, win *Window) (start time.Time) {
	interval := time.Duration(float64(time.Second) / l.W.Rate)
	start = time.Now().Add(10 * time.Millisecond)
	base := l.at
	l.at += n
	var next atomic.Int64
	// edges[b] is read by whichever connection claims the first request of
	// pattern b, at its due time; one more closes the last pattern.
	type edge struct {
		at  time.Time
		cpu float64
	}
	edges := make([]edge, n/l.W.Pattern+1)
	parts := make([]*Window, len(l.Conns))
	var wg sync.WaitGroup
	for ci, c := range l.Conns {
		parts[ci] = newWindow()
		wg.Add(1)
		go func(c *Conn, part *Window) {
			defer wg.Done()
			// A panic here would end the process without main's clean-up;
			// book it as a failed operation instead.
			defer func() {
				if p := recover(); p != nil {
					part.fail(l.request(base), fmt.Errorf("generator panic: %v", p))
				}
			}()
			if l.Traced {
				c.gaps = &part.Gaps
				defer func() { c.gaps = nil }()
			}
			for {
				i := int(next.Add(1)) - 1
				if i > n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if i%l.W.Pattern == 0 {
					edges[i/l.W.Pattern] = edge{time.Now(), l.Srv.CPUSeconds()}
				}
				if i == n {
					return // the slot after the last only closes the last block
				}
				r := l.request(base + i)
				part.Lag = append(part.Lag, ms(time.Since(due)))
				rep, err := c.Query(l.wire(r))
				if err != nil {
					part.fail(r, err)
					continue
				}
				part.record(r, due, rep, l.Golden)
			}
		}(c, parts[ci])
	}
	wg.Wait()
	for _, p := range parts {
		win.merge(p)
	}
	// A pattern's requests may still be in flight on the other connection
	// when the next pattern's edge is read; the smear is the same in every
	// block. The open loop reads only CPU per request off its blocks, and a
	// failed request fails the run, so a block's work is the pattern itself.
	for b := 0; b+1 < len(edges); b++ {
		win.Blocks = append(win.Blocks, Block{Wall: edges[b+1].at.Sub(edges[b].at), CPU: edges[b+1].cpu - edges[b].cpu, OK: l.W.Pattern})
	}
	return start
}

// Run offers load for at least d and returns what it produced: whole blocks
// of a closed loop until d has passed, or the whole number of patterns of an
// open loop that d holds at the fixed rate.
func (l *Load) Run(d time.Duration) *Window {
	win := newWindow()
	begin := time.Now()
	if l.W.Open {
		patterns := int(d.Seconds()*l.W.Rate/float64(l.W.Pattern) + 0.5)
		begin = l.Paced(max(1, patterns)*l.W.Pattern, win)
	} else {
		for time.Since(begin) < d {
			l.Sequential(l.BlockPatterns*l.W.Pattern, win)
		}
	}
	win.Wall = time.Since(begin)
	return win
}

// Calibrate sizes the closed loop's blocks from a window of warm load: as
// many patterns as last blockTarget at the pace just seen.
func (l *Load) Calibrate(warm *Window) {
	if l.W.Open || len(warm.Blocks) == 0 {
		return
	}
	per := warm.Wall / time.Duration(len(warm.Blocks)*l.BlockPatterns)
	l.BlockPatterns = max(1, int((blockTarget+per-1)/per))
}

// ColdPass sends every request of one pattern once, in order, on one
// connection: the first execution of each against a cold plan cache, pool,
// tables and bulk index. For the closed loops one pattern is every distinct
// request.
func (l *Load) ColdPass() *Window {
	win := newWindow()
	l.Sequential(l.W.Pattern, win)
	return win
}
