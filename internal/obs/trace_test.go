package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if got := tr.ID(); got != "" {
		t.Fatalf("nil ID() = %q", got)
	}
	id := tr.Start(Root, SpanExec)
	if id != NoSpan {
		t.Fatalf("nil Start = %d, want NoSpan", id)
	}
	tr.SetAttr(id, "rows", 1)
	tr.End(id)
	if s := tr.Summary(); s != nil {
		t.Fatalf("nil Summary = %+v, want nil", s)
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("req-1")
	plan := tr.Start(Root, SpanPlan)
	tr.End(plan)
	ex := tr.Start(Root, SpanExec)
	c0 := tr.Start(ex, SpanConjunct)
	tr.SetAttr(c0, "idx", 0)
	tr.SetAttr(c0, "tuples_popped", 42)
	tr.SetAttr(c0, "tuples_popped", 43) // overwrite
	tr.End(c0)
	tr.End(ex)

	s := tr.Summary()
	if s.ID != "req-1" {
		t.Fatalf("ID = %q", s.ID)
	}
	if s.Spans != 4 {
		t.Fatalf("Spans = %d, want 4", s.Spans)
	}
	if s.Root.Name != SpanRequest {
		t.Fatalf("root = %q", s.Root.Name)
	}
	execNode := s.Node(SpanExec)
	if execNode == nil || len(execNode.Children) != 1 {
		t.Fatalf("exec node missing or wrong children: %+v", execNode)
	}
	cj := execNode.Children[0]
	if cj.Name != SpanConjunct || cj.Attrs["tuples_popped"] != 43 || cj.Attrs["idx"] != 0 {
		t.Fatalf("conjunct node = %+v", cj)
	}
	// Summary must not mutate: a second call sees the same structure.
	s2 := tr.Summary()
	if s2.Spans != 4 {
		t.Fatalf("second Summary Spans = %d", s2.Spans)
	}
}

func TestTraceOpenSpansEndNow(t *testing.T) {
	tr := NewTrace("")
	if tr.ID() == "" {
		t.Fatal("empty id not generated")
	}
	sp := tr.Start(Root, SpanQueue)
	time.Sleep(time.Millisecond)
	s := tr.Summary()
	n := s.Node(SpanQueue)
	if n == nil || n.DurMs <= 0 {
		t.Fatalf("open span duration not positive: %+v", n)
	}
	tr.End(sp)
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	var last SpanID
	for i := 0; i < maxSpans+10; i++ {
		last = tr.Start(Root, SpanStream)
	}
	if last != NoSpan {
		t.Fatalf("expected NoSpan past cap, got %d", last)
	}
	// Dropped-span operations must be harmless.
	tr.SetAttr(last, "rows", 1)
	tr.End(last)
	s := tr.Summary()
	if s.Spans != maxSpans {
		t.Fatalf("Spans = %d, want %d", s.Spans, maxSpans)
	}
	if s.DroppedSpans != 11 {
		t.Fatalf("DroppedSpans = %d, want 11", s.DroppedSpans)
	}
}

func TestTraceOrphanAttachesToRoot(t *testing.T) {
	tr := NewTrace("orphan")
	sp := tr.Start(SpanID(999), SpanClose) // bogus parent
	tr.End(sp)
	s := tr.Summary()
	if n := s.Node(SpanClose); n == nil {
		t.Fatal("orphaned span lost")
	}
	if len(s.Root.Children) != 1 {
		t.Fatalf("root children = %d", len(s.Root.Children))
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace("ctx")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost through context")
	}
	if WithTrace(context.Background(), nil) != context.Background() {
		t.Fatal("nil trace should not wrap the context")
	}
}

func TestTraceRender(t *testing.T) {
	tr := NewTrace("render")
	ex := tr.Start(Root, SpanExec)
	tr.SetAttr(ex, "rows", 7)
	tr.End(ex)
	var b strings.Builder
	tr.Summary().Render(&b)
	out := b.String()
	for _, want := range []string{"trace render", SpanRequest, SpanExec, "rows=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := map[string]string{
		"abc-123.X:y_z":         "abc-123.X:y_z",
		"":                      "",
		"has space":             "",
		"emoji✗":                "",
		"newline\n":             "",
		strings.Repeat("a", 64): strings.Repeat("a", 64),
		strings.Repeat("a", 65): "",
	}
	for in, want := range cases {
		if got := SanitizeRequestID(in); got != want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("collision: %q", a)
	}
	if SanitizeRequestID(a) != a {
		t.Fatalf("generated ID fails its own sanitizer: %q", a)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("conc")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				sp := tr.Start(Root, SpanStream)
				tr.SetAttr(sp, "rows", int64(i))
				tr.End(sp)
				_ = tr.Summary()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
