package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"sync"
	"time"

	"omega"
	"omega/internal/fault"
)

// flushBytes is the pending-bytes threshold of the flush rule: an exhaustive
// scan, whose rows never wait on the engine, goes out in writes of about this
// size.
const flushBytes = 32 << 10

// finishGrace is how long past the request's deadline the terminal line may
// still take to write.
const finishGrace = time.Second

// rowWriter is the /query handler's row sink: it appends each batch to a
// pooled buffer as NDJSON and writes-and-flushes when rows would otherwise
// wait too long —
//
//   - after the first row of the response (time to first answer is the
//     paper's incremental return; it never rides behind a batch);
//   - at the execution's idle hook (idle): every 4 096 tuple operations of
//     ranked search, and before each bulk lane block;
//   - at the end of a turn with another request runnable (the scheduler's
//     wait flag: the worker goes to do something else);
//   - when flushBytes are pending;
//   - at the end of the stream (finish).
//
// So a ranked APPROX/RELAX stream leaves in a few writes — its first row
// alone, then the rest coalesced, none held for more than 4 096 tuple
// operations of its execution — and a bulk scan in ~32 KiB writes and one at
// the end of each block. The bound is work, never wall time, so which rows
// share a write repeats exactly from run to run. Before every
// write the connection gets a write deadline — the stall budget from now, or
// the request's own deadline if that is sooner — because a reader that stops
// draining blocks the write where no context cancellation reaches it; the
// timeout comes back as ErrStalled (or omega.ErrDeadline). The steady state
// allocates nothing: buffer and prefix are recycled through rowWriterPool.
type rowWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	metrics *serverMetrics
	stall   time.Duration // the scheduler's StallBudget (0 = watchdog off)
	reqDL   time.Time     // the request's deadline (zero = none)

	buf     []byte
	prefix  []byte // {"vars":[…],"labels":[ of this response; empty until the first row
	pending int    // rows in buf

	wrote      bool  // bytes have gone to the client: the status line is spent
	noFlush    bool  // w cannot flush (http.ErrNotSupported): writes are all there is
	noDeadline bool  // w cannot take a write deadline
	stallArmed bool  // the deadline in force is the stall budget's, not the request's
	err        error // first write failure; the connection is not written to again
}

var rowWriterPool = sync.Pool{New: func() any {
	// Room for the threshold plus the batch that crosses it.
	return &rowWriter{buf: make([]byte, 0, flushBytes+flushBytes/4)}
}}

func newRowWriter(ctx context.Context, w http.ResponseWriter, m *serverMetrics, stall time.Duration) *rowWriter {
	rw := rowWriterPool.Get().(*rowWriter)
	buf, prefix := rw.buf[:0], rw.prefix[:0]
	*rw = rowWriter{w: w, rc: http.NewResponseController(w), metrics: m, stall: stall, buf: buf, prefix: prefix}
	rw.reqDL, _ = ctx.Deadline()
	return rw
}

// release returns the writer to the pool; a buffer some outsized row grew
// well past the threshold is dropped rather than kept for every later request.
func (rw *rowWriter) release() {
	if cap(rw.buf) > 2*flushBytes {
		return
	}
	rw.w, rw.rc = nil, nil
	rowWriterPool.Put(rw)
}

// deliver implements Sink.
func (rw *rowWriter) deliver(rows []omega.Row, wait bool) error {
	if rw.err != nil || len(rows) == 0 && !wait {
		// A write failed, possibly in idle: the stream is over. The empty
		// call that ends a stream only asks for that.
		return rw.err
	}
	if fault.Enabled() {
		// serve.write simulates misbehaving clients, once per row: a delay
		// action is a slow reader back-pressuring the stream, an error action
		// a mid-stream disconnect. They fire before the batch is encoded, so a
		// failed batch has delivered none of its rows.
		for range rows {
			if err := fault.Inject("serve.write"); err != nil {
				return err
			}
		}
	}
	if rw.pastDeadline() {
		return omega.ErrDeadline
	}
	if len(rw.prefix) == 0 && len(rows) > 0 {
		rw.prefix = appendRowPrefix(rw.prefix, rows[0].Vars)
	}
	for i := range rows {
		r := &rows[i]
		rw.buf = appendRow(rw.buf, rw.prefix, r.Labels, r.Nodes, r.Dist)
		rw.pending++
		if !rw.wrote || len(rw.buf) >= flushBytes {
			if err := rw.flush(); err != nil {
				return err
			}
		}
	}
	if wait && len(rw.buf) > 0 {
		return rw.flush()
	}
	return nil
}

// idle is the execution's idle hook (omega.ExecOptions.Idle): the engine has
// worked on since the rows pending here came out, so they leave now. With
// nothing pending it writes nothing. It returns nothing to the engine: a
// failed write is sticky in rw.err, and the next deliver reports it.
func (rw *rowWriter) idle() {
	if rw.pending > 0 && !rw.pastDeadline() {
		_ = rw.flush()
	}
}

// pastDeadline reports whether the request's deadline has passed: a write
// could then only time out, and break the connection for the terminal line
// that says why the stream ended.
func (rw *rowWriter) pastDeadline() bool {
	return !rw.reqDL.IsZero() && !time.Now().Before(rw.reqDL)
}

// finish appends the stream's terminal line (done or error) and pushes out
// whatever is pending with it. The line is how a client learns that the
// request's deadline ended the stream, so its write may outlive that deadline
// by finishGrace; the stall budget still bounds a reader that stopped.
func (rw *rowWriter) finish(line []byte) error {
	if grace := time.Now().Add(finishGrace); !rw.reqDL.IsZero() && rw.reqDL.Before(grace) {
		rw.reqDL = grace
	}
	rw.buf = append(rw.buf, line...)
	rw.buf = append(rw.buf, '\n')
	return rw.flush()
}

// flush writes the pending bytes under a fresh write deadline and flushes
// them to the socket.
func (rw *rowWriter) flush() error {
	if rw.err != nil {
		return rw.err
	}
	if !rw.wrote {
		rw.w.Header().Set("Content-Type", "application/x-ndjson")
		rw.wrote = true
	}
	rw.armDeadline()
	_, err := rw.w.Write(rw.buf)
	rw.metrics.observeFlush(rw.pending, len(rw.buf))
	rw.buf, rw.pending = rw.buf[:0], 0
	if err == nil && !rw.noFlush {
		if err = rw.rc.Flush(); errors.Is(err, http.ErrNotSupported) {
			rw.noFlush, err = true, nil
		}
	}
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if rw.stallArmed {
				err = &StalledError{Budget: rw.stall}
			} else {
				err = omega.ErrDeadline
			}
		}
		rw.err = err
	}
	return err
}

// armDeadline bounds the next write: the stall budget from now when the
// watchdog is armed, the request's deadline if that comes first (or alone).
func (rw *rowWriter) armDeadline() {
	if rw.noDeadline {
		return
	}
	dl := rw.reqDL
	rw.stallArmed = false
	if rw.stall > 0 {
		if s := time.Now().Add(rw.stall); dl.IsZero() || s.Before(dl) {
			dl, rw.stallArmed = s, true
		}
	}
	if dl.IsZero() {
		return
	}
	if rw.rc.SetWriteDeadline(dl) != nil {
		// http.ErrNotSupported (a writer that is no connection), or a
		// connection already broken, which the write itself will report.
		rw.noDeadline = true
	}
}
