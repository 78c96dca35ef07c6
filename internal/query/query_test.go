package query

import (
	"slices"
	"strings"
	"testing"

	"omega/internal/automaton"
	"omega/internal/l4all"
	"omega/internal/yago"
)

func TestParsePaperQueries(t *testing.T) {
	// Every query string from Figures 4 and 9 of the paper must parse.
	queries := []string{
		"(?X) <- (Work Episode, type-, ?X)",
		"(?X) <- (Information Systems, type-.qualif-, ?X)",
		"(?X) <- (Software Professionals, type-.job-, ?X)",
		"(?X, ?Y) <- (?X, job.type, ?Y)",
		"(?X, ?Y) <- (?X, next+, ?Y)",
		"(?X, ?Y) <- (?X, prereq+, ?Y)",
		"(?X, ?Y) <- (?X, next+|(prereq+.next), ?Y)",
		"(?X) <- (Mathematical and Computer Sciences, type.prereq+, ?X)",
		"(?X) <- (Alumni 4 Episode 1_1, prereq*.next+.prereq, ?X)",
		"(?X) <- (Librarians, type-, ?X)",
		"(?X) <- (Librarians, type-.job-.next, ?X)",
		"(?X) <- (BTEC Introductory Diploma, level-.qualif-.prereq, ?X)",
		"(?X) <- (Halle_Saxony-Anhalt, bornIn-.marriedTo.hasChild, ?X)",
		"(?X) <- (Li_Peng, hasChild.gradFrom.gradFrom-.hasWonPrize, ?X)",
		"(?X) <- (wordnet_ziggurat, type-.locatedIn-, ?X)",
		"(?X, ?Y) <- (?X, directed.married.married+.playsFor, ?Y)",
		"(?X, ?Y) <- (?X, isConnectedTo.wasBornIn, ?Y)",
		"(?X, ?Y) <- (?X, imports.exports-, ?Y)",
		"(?X) <- (wordnet_city, type-.happenedIn-.participatedIn-, ?X)",
		"(?X) <- (Annie Haslam, type.type-.actedIn, ?X)",
		"(?X) <- (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom), ?X)",
	}
	for _, qs := range queries {
		if _, err := Parse(qs); err != nil {
			t.Errorf("Parse(%q): %v", qs, err)
		}
	}
}

func TestParseModes(t *testing.T) {
	cases := []struct {
		in   string
		mode automaton.Mode
	}{
		{"(?X) <- (UK, isLocatedIn-.gradFrom, ?X)", automaton.Exact},
		{"(?X) <- APPROX (UK, isLocatedIn-.gradFrom, ?X)", automaton.Approx},
		{"(?X) <- RELAX (UK, isLocatedIn-.gradFrom, ?X)", automaton.Relax},
		{"(?X) <- FLEX (UK, isLocatedIn-.gradFrom, ?X)", automaton.Flex},
		{"(?X) <- approx (UK, isLocatedIn-.gradFrom, ?X)", automaton.Approx},
		{"(?X) <- relax(UK, isLocatedIn-.gradFrom, ?X)", automaton.Relax},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if q.Conjuncts[0].Mode != c.mode {
			t.Errorf("Parse(%q) mode = %v, want %v", c.in, q.Conjuncts[0].Mode, c.mode)
		}
	}
}

func TestParseMultiConjunct(t *testing.T) {
	q, err := Parse("(?X, ?Z) <- (?X, p.q, ?Y), APPROX (?Y, r|s, ?Z), RELAX (?Z, t, ?W)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conjuncts) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(q.Conjuncts))
	}
	if q.Conjuncts[0].Mode != automaton.Exact ||
		q.Conjuncts[1].Mode != automaton.Approx ||
		q.Conjuncts[2].Mode != automaton.Relax {
		t.Fatalf("modes = %v/%v/%v", q.Conjuncts[0].Mode, q.Conjuncts[1].Mode, q.Conjuncts[2].Mode)
	}
	if len(q.Head) != 2 || q.Head[0] != "X" || q.Head[1] != "Z" {
		t.Fatalf("head = %v", q.Head)
	}
}

func TestParseConstantsWithSpaces(t *testing.T) {
	q, err := Parse("(?X) <- (Mathematical and Computer Sciences, type.prereq+, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Conjuncts[0].Subject.Name; got != "Mathematical and Computer Sciences" {
		t.Fatalf("subject = %q", got)
	}
	if q.Conjuncts[0].Subject.IsVar {
		t.Fatal("subject parsed as variable")
	}
}

func TestParseConstantStartingWithKeyword(t *testing.T) {
	// A constant literally named "RELAXATION" must not eat the RELAX prefix.
	q, err := Parse("(?X) <- (RELAXATION, p, ?X)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Conjuncts[0].Mode != automaton.Exact || q.Conjuncts[0].Subject.Name != "RELAXATION" {
		t.Fatalf("conjunct = %+v", q.Conjuncts[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(?X)",                      // no body
		"(?X) <-",                   // empty body
		"?X <- (a, p, ?X)",          // head not parenthesised
		"() <- (a, p, ?X)",          // empty head
		"(X) <- (a, p, ?X)",         // head not a variable
		"(?X) <- (a, p)",            // conjunct arity
		"(?X) <- (a, p, ?X, extra)", // conjunct arity
		"(?X) <- a, p, ?X",          // conjunct not parenthesised
		"(?Y) <- (a, p, ?X)",        // head var unbound
		"(?X) <- (a, p..q, ?X)",     // bad regexp
		"(?X) <- (a, p, ?)",         // bare '?'
		"(?X) <- (, p, ?X)",         // empty term
	}
	for _, in := range bad {
		if q, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", in, q)
		}
	}
}

func TestRoundTripThroughConjunctString(t *testing.T) {
	in := "(?X) <- APPROX (UK, (livesIn-.hasCurrency)|(locatedIn-.gradFrom), ?X)"
	q := MustParse(in)
	s := q.Conjuncts[0].String()
	if !strings.Contains(s, "APPROX") || !strings.Contains(s, "UK") {
		t.Fatalf("conjunct rendering lost information: %q", s)
	}
	// Re-parse the rendered conjunct inside a fresh query.
	q2, err := Parse("(?X) <- " + s)
	if err != nil {
		t.Fatalf("re-parse %q: %v", s, err)
	}
	if !q2.Conjuncts[0].Expr.Equal(q.Conjuncts[0].Expr) {
		t.Fatalf("expression changed: %s vs %s", q2.Conjuncts[0].Expr, q.Conjuncts[0].Expr)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("not a query")
}

// FuzzParseQuery: any text Parse accepts renders back — the head, then each
// conjunct's String — into text that parses to the same query: head, subjects,
// objects, modes and expressions (rpq Expr.Equal). Seeded with the 21 study
// queries and the benchmark's two-conjunct join.
func FuzzParseQuery(f *testing.F) {
	for _, q := range l4all.Queries() {
		f.Add(q.Text)
	}
	for _, q := range yago.Queries() {
		f.Add(q.Text)
	}
	f.Add("(?X, ?Y) <- (Alumni_0_Episode_1, next+, ?X), (?X, job.type, ?Y)")
	f.Add("(?X, ?Z) <- (?X, p.q, ?Y), APPROX (?Y, r|s, ?Z), relax(?Z, t, ?W)")
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		parts := make([]string, len(q.Conjuncts))
		for i, c := range q.Conjuncts {
			parts[i] = c.String()
		}
		rendered := "(?" + strings.Join(q.Head, ", ?") + ") <- " + strings.Join(parts, ", ")
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("%q rendered as %q, which does not parse: %v", text, rendered, err)
		}
		if !slices.Equal(again.Head, q.Head) || len(again.Conjuncts) != len(q.Conjuncts) {
			t.Fatalf("%q rendered as %q: head %q and %d conjuncts, want %q and %d",
				text, rendered, again.Head, len(again.Conjuncts), q.Head, len(q.Conjuncts))
		}
		for i, c := range q.Conjuncts {
			d := again.Conjuncts[i]
			if d.Subject != c.Subject || d.Object != c.Object || d.Mode != c.Mode || !d.Expr.Equal(c.Expr) {
				t.Fatalf("%q rendered as %q: conjunct %d is %v, want %v", text, rendered, i+1, d, c)
			}
		}
	})
}
