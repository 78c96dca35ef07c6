package automaton

import (
	"slices"
	"testing"

	"omega/internal/rpq"
)

// FuzzAutomaton holds the construction pipeline to its references on fuzzed
// expression text. Words are drawn from the fuzzed bytes over the
// expression's labels plus one label it does not mention, each byte one
// symbol (the high bit inverts it), and every prefix of the word is checked:
//
//   - FromRegexp accepts at cost 0 exactly what the AST matcher accepts;
//   - RemoveEpsilon keeps MinCostWord, on the plain automaton and after
//     Approx;
//   - the APPROX automaton Build serves (ε removed before and after Approx)
//     keeps the MinCostWord of Approx applied to the Thompson ε-NFA;
//   - Reverse agrees with the automaton of the reversed expression.
//
// Texts over 48 bytes and automata over 64 states are skipped, so one input
// stays small enough for the matchers. The seed corpus (testdata/fuzz)
// holds the study's Q7, Q8, Q9 and Q12 expressions.
func FuzzAutomaton(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, syms []byte) {
		if len(text) > 48 {
			t.Skip()
		}
		e, err := rpq.Parse(text)
		if err != nil {
			t.Skip()
		}
		n := FromRegexp(e)
		if n.NumStates > 64 {
			t.Skip()
		}
		alphabet := e.Labels()
		foreign := "foreign"
		for slices.Contains(alphabet, foreign) {
			foreign += "'"
		}
		alphabet = append(alphabet, foreign)
		if len(syms) > 8 {
			syms = syms[:8]
		}
		w := make([]WordSym, len(syms))
		for i, b := range syms {
			w[i] = WordSym{Label: alphabet[int(b&0x7f)%len(alphabet)], Inverse: b&0x80 != 0}
		}

		approx := n.Approx(DefaultEditCosts())
		served, err := buildNFA(e, nil, BuildOptions{Mode: Approx, Edit: DefaultEditCosts()})
		if err != nil {
			t.Fatalf("%s: buildNFA: %v", e, err)
		}
		pairs := []struct {
			name          string
			before, after *NFA
		}{
			{"RemoveEpsilon", n, n.RemoveEpsilon()},
			{"Approx then RemoveEpsilon", approx, approx.RemoveEpsilon()},
			{"Build's APPROX pipeline", approx, served},
		}
		rev, err := n.Reverse()
		if err != nil {
			t.Fatalf("%s: Reverse: %v", e, err)
		}
		astRev := FromRegexp(e.Reverse())

		for k := 0; k <= len(w); k++ {
			p := w[:k]
			cost, ok := n.MinCostWord(p, nil)
			if got, want := ok && cost == 0, matchAST(e, p); got != want {
				t.Fatalf("%s on %v: FromRegexp accepts at cost 0 = %v, AST = %v", e, p, got, want)
			}
			for _, pr := range pairs {
				c1, ok1 := pr.before.MinCostWord(p, nil)
				c2, ok2 := pr.after.MinCostWord(p, nil)
				if ok1 != ok2 || ok1 && c1 != c2 {
					t.Fatalf("%s on %v: %s changed MinCostWord (%d, %v) → (%d, %v)", e, p, pr.name, c1, ok1, c2, ok2)
				}
			}
			c1, ok1 := rev.MinCostWord(p, nil)
			c2, ok2 := astRev.MinCostWord(p, nil)
			if ok1 != ok2 || ok1 && c1 != c2 {
				t.Fatalf("%s on %v: Reverse (%d, %v), FromRegexp of the reversed expression (%d, %v)", e, p, c1, ok1, c2, ok2)
			}
		}
	})
}
