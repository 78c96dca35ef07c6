// Package obs is omega's observability layer: request-scoped trace spans and
// a hand-rolled Prometheus text-exposition metrics registry. It is stdlib-only
// by design — the serving stack must not grow a dependency for the privilege
// of being observable.
//
// The tracing side is built around one hard contract: a request that did not
// ask for a trace pays exactly one nil-pointer check per instrumented site and
// zero allocations. Every Trace method is safe on a nil receiver, so call
// sites guard with `if tr != nil` only where they would otherwise do span
// bookkeeping work (attribute marshalling, time.Now calls).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span names — the taxonomy of the request path, pinned by the span-tree
// regression tests and documented in DESIGN.md. A span tree for a traced HTTP
// request reads: request → plan (cache lookup/compile) → queue (wait for the
// first worker turn) → stream (worker turns; quantum children) → exec
// (per-conjunct children, bulk_index / psi_phase below those) → close
// (resource release).
const (
	SpanRequest   = "request"    // root: the whole request
	SpanPlan      = "plan"       // plan-cache lookup or compile
	SpanQueue     = "queue"      // admitted, waiting for the first worker turn
	SpanStream    = "stream"     // first worker turn → last row delivered
	SpanQuantum   = "quantum"    // one scheduling turn of rows
	SpanExec      = "exec"       // the engine execution
	SpanConjunct  = "conjunct"   // one conjunct's evaluation
	SpanBulkIndex = "bulk_index" // bulk backend index build (or cache hit)
	SpanPsiPhase  = "psi_phase"  // one ψ phase of incremental distance-aware mode
	SpanClose     = "close"      // deterministic resource release
)

// SpanID identifies a span within one Trace. The zero value is the root span;
// NoSpan marks a span that was dropped (trace full) or never started (nil
// trace) — every Trace method accepts it and does nothing.
type SpanID int32

// Root is the SpanID of the implicit request-root span every Trace starts
// with.
const Root SpanID = 0

// NoSpan is the SpanID returned when a span could not be recorded; End and
// SetAttr on it are no-ops.
const NoSpan SpanID = -1

// maxSpans bounds a trace's span population so a pathological request (say, a
// million-row stream recording per-quantum spans) cannot grow the trace
// without bound; further Start calls count into Summary's DroppedSpans.
const maxSpans = 512

// Attr is one integer span attribute (counters the phase already tracks:
// tuples popped, bytes, ψ...). Attributes are integers only —
// strings would invite allocation-happy formatting on the request path.
type Attr struct {
	Key string
	Val int64
}

type span struct {
	name   string
	parent SpanID
	start  time.Duration // offset from trace epoch
	end    time.Duration
	open   bool
	attrs  []Attr
}

// Trace is one request's span recorder. It is safe for concurrent use (the
// scheduler's worker, the HTTP handler goroutine and the watchdog may all
// touch it); all methods are no-ops on a nil receiver so untraced requests
// cost a single nil check per site.
type Trace struct {
	id    string
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

// NewTrace starts a trace whose root "request" span opens now. An empty id
// generates a fresh request ID.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewRequestID()
	}
	t := &Trace{id: id, epoch: time.Now()}
	t.spans = append(t.spans, span{name: SpanRequest, parent: NoSpan, open: true})
	return t
}

// ID returns the trace's request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a child span of parent and returns its ID. On a nil trace, or
// once the trace is full, it returns NoSpan (dropped spans are counted).
func (t *Trace) Start(parent SpanID, name string) SpanID {
	if t == nil {
		return NoSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return NoSpan
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, open: true})
	return id
}

// End closes the span. Ending a span twice keeps the first end time.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) || !t.spans[id].open {
		return
	}
	t.spans[id].open = false
	t.spans[id].end = now
}

// SetAttr attaches (or overwrites) an integer attribute on the span.
func (t *Trace) SetAttr(id SpanID, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	sp := &t.spans[id]
	for i := range sp.attrs {
		if sp.attrs[i].Key == key {
			sp.attrs[i].Val = v
			return
		}
	}
	sp.attrs = append(sp.attrs, Attr{Key: key, Val: v})
}

// Summary renders the trace as a span tree. Spans still open are reported as
// ending now (the trace itself is not mutated, so Summary may be called more
// than once — e.g. for the done line and again for a slow-query log).
type Summary struct {
	ID           string    `json:"id"`
	DurMs        float64   `json:"dur_ms"`
	Spans        int       `json:"spans"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Root         *SpanNode `json:"root"`
}

// SpanNode is one span in the summary tree, children in start order.
type SpanNode struct {
	Name     string           `json:"name"`
	StartMs  float64          `json:"start_ms"`
	DurMs    float64          `json:"dur_ms"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*SpanNode      `json:"children,omitempty"`
}

// Summary snapshots the trace into a span tree. Nil-safe (returns nil).
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	spans := make([]span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	nodes := make([]*SpanNode, len(spans))
	for i, sp := range spans {
		end := sp.end
		if sp.open {
			end = now
		}
		n := &SpanNode{
			Name:    sp.name,
			StartMs: float64(sp.start.Nanoseconds()) / 1e6,
			DurMs:   float64((end - sp.start).Nanoseconds()) / 1e6,
		}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]int64, len(sp.attrs))
			for _, a := range sp.attrs {
				n.Attrs[a.Key] = a.Val
			}
		}
		nodes[i] = n
	}
	for i, sp := range spans {
		if i == 0 {
			continue
		}
		parent := int(sp.parent)
		if parent < 0 || parent >= len(nodes) || parent == i {
			parent = 0 // orphaned (parent dropped): attach to the root
		}
		nodes[parent].Children = append(nodes[parent].Children, nodes[i])
	}
	return &Summary{
		ID:           t.id,
		DurMs:        float64(now.Nanoseconds()) / 1e6,
		Spans:        len(spans),
		DroppedSpans: dropped,
		Root:         nodes[0],
	}
}

// Render writes the summary as an indented text tree (the cmd/omega -analyze
// output).
func (s *Summary) Render(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "trace %s (%.2fms, %d spans", s.ID, s.DurMs, s.Spans)
	if s.DroppedSpans > 0 {
		fmt.Fprintf(w, ", %d dropped", s.DroppedSpans)
	}
	fmt.Fprintln(w, ")")
	renderNode(w, s.Root, 0)
}

func renderNode(w io.Writer, n *SpanNode, depth int) {
	if n == nil {
		return
	}
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	fmt.Fprintf(w, "%s +%.2fms %.2fms", n.Name, n.StartMs, n.DurMs)
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, n.Attrs[k])
		}
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		renderNode(w, c, depth+1)
	}
}

// Node returns the first span node with the given name in a pre-order walk
// (nil when absent) — a test convenience for pinning the span taxonomy.
func (s *Summary) Node(name string) *SpanNode {
	if s == nil {
		return nil
	}
	return findNode(s.Root, name)
}

func findNode(n *SpanNode, name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if found := findNode(c, name); found != nil {
			return found
		}
	}
	return nil
}

// ctxKey carries a *Trace through a context.
type ctxKey struct{}

// WithTrace attaches tr to ctx (no-op when tr is nil).
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// time-derived ID rather than panicking on the request path.
		return fmt.Sprintf("t%015x", time.Now().UnixNano()&0xFFFFFFFFFFFFFFF)
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID validates a client-supplied request ID (X-Request-Id):
// 1–64 characters drawn from [A-Za-z0-9._:-]. Anything else returns "", and
// the caller generates a fresh ID — client input must not be able to break
// log lines or JSON framing.
func SanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '-':
		default:
			return ""
		}
	}
	return s
}
