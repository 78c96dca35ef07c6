package rpq

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want *Expr
	}{
		{"a", Label("a")},
		{"a-", Inv("a")},
		{"_", Any()},
		{"_-", AnyInv()},
		{"()", Eps()},
		{"a.b", Concat(Label("a"), Label("b"))},
		{"a|b", Alt(Label("a"), Label("b"))},
		{"a*", Star(Label("a"))},
		{"a+", Plus(Label("a"))},
		{"a?", Opt(Label("a"))},
		{"a.b|c", Alt(Concat(Label("a"), Label("b")), Label("c"))},
		{"a.(b|c)", Concat(Label("a"), Alt(Label("b"), Label("c")))},
		{"(a.b)*", Star(Concat(Label("a"), Label("b")))},
		{"isLocatedIn-.gradFrom", Concat(Inv("isLocatedIn"), Label("gradFrom"))},
		{"prereq*.next+.prereq", Concat(Star(Label("prereq")), Plus(Label("next")), Label("prereq"))},
		{"next+|(prereq+.next)", Alt(Plus(Label("next")), Concat(Plus(Label("prereq")), Label("next")))},
		{"type-.qualif-", Concat(Inv("type"), Inv("qualif"))},
		{" a . b ", Concat(Label("a"), Label("b"))},
		{"a--", Label("a")},     // double inverse cancels
		{"a-*", Star(Inv("a"))}, // postfix order: inverse then star
		{"(livesIn-.hasCurrency)|(locatedIn-.gradFrom)", Alt(
			Concat(Inv("livesIn"), Label("hasCurrency")),
			Concat(Inv("locatedIn"), Label("gradFrom")))},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestParseGroupInverseIsReversal(t *testing.T) {
	got := MustParse("(a.b)-")
	want := Concat(Inv("b"), Inv("a"))
	if !got.Equal(want) {
		t.Fatalf("(a.b)- = %s, want %s", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "|", "a|", "a.", "(", "(a", "a)", "*", "a**b", "a b", "_x",
		"a..b", "a||b", ".a", "-a", "a.(", "()(",
	}
	for _, in := range bad {
		if e, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %s, want error", in, e)
		}
	}
}

func TestParseIdentifierCharset(t *testing.T) {
	for _, in := range []string{"wordnet_city", "rdf:type", "foo#bar", "l'author", "Q42"} {
		e, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if e.Op != OpLabel || e.Label != in {
			t.Errorf("Parse(%q) = %#v, want label", in, e)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []string{
		"a", "a-", "_", "_-", "()", "a.b.c", "a|b|c", "a*", "a+", "a?",
		"(a|b).c", "a.(b|c)*", "(a.b)+", "next+|(prereq+.next)",
		"isLocatedIn-.gradFrom",
	}
	for _, in := range exprs {
		e := MustParse(in)
		back, err := Parse(e.String())
		if err != nil {
			t.Errorf("re-Parse(%q → %q): %v", in, e.String(), err)
			continue
		}
		if !back.Equal(e) {
			t.Errorf("round trip %q → %q → %s changed structure", in, e.String(), back)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	exprs := []string{
		"a", "a-", "_", "a.b", "a|b", "a*", "a+", "a?", "(a.b|c*).d-",
		"prereq*.next+.prereq",
	}
	for _, in := range exprs {
		e := MustParse(in)
		if got := e.Reverse().Reverse(); !got.Equal(e) {
			t.Errorf("Reverse∘Reverse(%q) = %s, want %s", in, got, e)
		}
	}
}

func TestReverseConcatOrder(t *testing.T) {
	e := MustParse("a.b.c")
	want := MustParse("c-.b-.a-")
	if got := e.Reverse(); !got.Equal(want) {
		t.Fatalf("Reverse(a.b.c) = %s, want %s", got, want)
	}
}

func TestConstructorsFlatten(t *testing.T) {
	if got := Concat(); got.Op != OpEps {
		t.Errorf("Concat() = %s, want ()", got)
	}
	if got := Concat(Label("a")); !got.Equal(Label("a")) {
		t.Errorf("Concat(a) = %s, want a", got)
	}
	if got := Concat(Eps(), Label("a"), Eps()); !got.Equal(Label("a")) {
		t.Errorf("Concat((),a,()) = %s, want a", got)
	}
	if got := Concat(Concat(Label("a"), Label("b")), Label("c")); len(got.Kids) != 3 {
		t.Errorf("nested concat not flattened: %s", got)
	}
	if got := Alt(Alt(Label("a"), Label("b")), Label("c")); len(got.Kids) != 3 {
		t.Errorf("nested alt not flattened: %s", got)
	}
}

func TestAlternands(t *testing.T) {
	e := MustParse("a.b|c|d*")
	alts := e.Alternands()
	if len(alts) != 3 {
		t.Fatalf("Alternands = %d, want 3", len(alts))
	}
	single := MustParse("a.b")
	if alts := single.Alternands(); len(alts) != 1 || !alts[0].Equal(single) {
		t.Fatalf("Alternands of non-alt = %v", alts)
	}
}

func TestLabels(t *testing.T) {
	e := MustParse("a.b-|a.c*._")
	got := e.Labels()
	want := map[string]bool{"a": true, "b": true, "c": true}
	if len(got) != 3 {
		t.Fatalf("Labels = %v, want 3 distinct", got)
	}
	for _, l := range got {
		if !want[l] {
			t.Fatalf("unexpected label %q", l)
		}
	}
}

func TestSize(t *testing.T) {
	if got := MustParse("a.b|c*").Size(); got != 6 {
		// alt(concat(a,b), star(c)) = 1+ (1+1+1) + (1+1)
		t.Fatalf("Size = %d, want 6", got)
	}
}

// randomExpr builds a random expression for property testing.
func randomExpr(rng *rand.Rand, depth int) *Expr {
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return Eps()
		case 1:
			return Any()
		case 2:
			return AnyInv()
		case 3:
			return Inv(string(rune('a' + rng.Intn(4))))
		default:
			return Label(string(rune('a' + rng.Intn(4))))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Concat(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return Alt(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return Star(randomExpr(rng, depth-1))
	case 3:
		return Plus(randomExpr(rng, depth-1))
	case 4:
		return Opt(randomExpr(rng, depth-1))
	default:
		return randomExpr(rng, depth-1)
	}
}

// Property: printing any expression and parsing it back yields an equal tree.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		e := randomExpr(rng, 4)
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("iter %d: Parse(%q): %v", i, s, err)
		}
		if !back.Equal(e) {
			t.Fatalf("iter %d: round trip %q changed structure: %s", i, s, back)
		}
	}
}

// Property: reversal is an involution on random expressions.
func TestQuickReverseInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := randomExpr(rng, 4)
		if got := e.Reverse().Reverse(); !got.Equal(e) {
			t.Fatalf("iter %d: double reversal of %s gave %s", i, e, got)
		}
	}
}

// Property: the parser never panics on arbitrary input.
func TestQuickParseNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := "ab|.*+?()-_ \t"
	for i := 0; i < 2000; i++ {
		n := rng.Intn(12)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		_, _ = Parse(b.String()) // must not panic
	}
}
