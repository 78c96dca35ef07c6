package graph

import (
	"errors"
	"testing"
)

func TestDirectionString(t *testing.T) {
	if Out.String() != "out" || In.String() != "in" || Both.String() != "both" {
		t.Errorf("direction strings: %s %s %s", Out, In, Both)
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction renders empty")
	}
}

func TestDirectionReverse(t *testing.T) {
	if Out.Reverse() != In || In.Reverse() != Out || Both.Reverse() != Both {
		t.Error("Reverse broken")
	}
}

func TestLabelsSnapshot(t *testing.T) {
	b := NewBuilder()
	x, y := b.AddNode("x"), b.AddNode("y")
	_ = b.AddEdge(x, "p", y)
	g := b.Freeze()
	ls := g.Labels()
	if len(ls) != 1 || ls[0] != "p" {
		t.Fatalf("Labels = %v", ls)
	}
	ls[0] = "mutated"
	if g.LabelName(0) != "p" {
		t.Fatal("Labels() exposes internal storage")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 16 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestSaveSurfacesWriteErrors(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 100; i++ {
		_ = b.AddTriple("x", "p", "y")
		b.AddNode(string(rune('a' + i%26)))
	}
	g := b.Freeze()
	if err := Save(&failWriter{}, g); err == nil {
		t.Fatal("Save swallowed the write error")
	}
}

func TestSaveRejectsNewlineLabels(t *testing.T) {
	b := NewBuilder()
	x := b.AddNode("line1\nline2")
	_ = b.AddEdge(x, "p", x)
	if err := Save(&failWriter{n: -1 << 30}, b.Freeze()); err == nil {
		t.Fatal("Save accepted a node label containing a newline")
	}
}

func TestNodeStreamEmpty(t *testing.T) {
	g := NewBuilder().Freeze()
	s := newStream(g, nil, false)
	if got := s.Drain(); len(got) != 0 {
		t.Fatalf("empty stream drained %v", got)
	}
	s2 := newStream(g, nil, true)
	if got := s2.Drain(); len(got) != 0 {
		t.Fatalf("empty graph includeRest drained %v", got)
	}
}
