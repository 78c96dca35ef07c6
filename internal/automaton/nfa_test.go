package automaton

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"omega/internal/graph"
	"omega/internal/ontology"
	"omega/internal/rpq"
)

// --- reference semantics -------------------------------------------------
//
// The tests check the automaton pipeline against two independent references:
// an AST-level membership DP (for exact matching) and an enumerate-language-
// then-edit-distance DP (for APPROX costs). Neither shares code with the
// NFA machinery.

func sym(label string) WordSym  { return WordSym{Label: label} }
func isym(label string) WordSym { return WordSym{Label: label, Inverse: true} }

func word(syms ...WordSym) []WordSym { return syms }

// matchAST reports whether word ∈ L(e), by dynamic programming on the AST.
func matchAST(e *rpq.Expr, w []WordSym) bool {
	type key struct {
		node *rpq.Expr
		i, j int
	}
	memo := map[key]bool{}
	var m func(e *rpq.Expr, i, j int) bool
	m = func(e *rpq.Expr, i, j int) bool {
		k := key{e, i, j}
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = false // cycle guard for ε-loops
		var res bool
		switch e.Op {
		case rpq.OpEps:
			res = i == j
		case rpq.OpLabel:
			res = j == i+1 && w[i].Label == e.Label && w[i].Inverse == e.Inverse
		case rpq.OpAny:
			res = j == i+1 && w[i].Inverse == e.Inverse
		case rpq.OpConcat:
			res = matchConcat(e.Kids, i, j, m)
		case rpq.OpAlt:
			for _, kid := range e.Kids {
				if m(kid, i, j) {
					res = true
					break
				}
			}
		case rpq.OpStar:
			if i == j {
				res = true
			} else {
				for k2 := i + 1; k2 <= j && !res; k2++ {
					if m(e.Kids[0], i, k2) && m(e, k2, j) {
						res = true
					}
				}
			}
		case rpq.OpPlus:
			if i == j {
				res = m(e.Kids[0], i, i)
			} else {
				for k2 := i + 1; k2 <= j && !res; k2++ {
					if m(e.Kids[0], i, k2) && (k2 == j || m(e, k2, j) || m(rpq.Star(e.Kids[0]), k2, j)) {
						res = true
					}
				}
				if !res {
					// single iteration spanning everything
					res = m(e.Kids[0], i, j)
				}
			}
		case rpq.OpOpt:
			res = i == j || m(e.Kids[0], i, j)
		}
		memo[k] = res
		return res
	}
	return m(e, 0, len(w))
}

func matchConcat(kids []*rpq.Expr, i, j int, m func(*rpq.Expr, int, int) bool) bool {
	if len(kids) == 1 {
		return m(kids[0], i, j)
	}
	for k := i; k <= j; k++ {
		if m(kids[0], i, k) && matchConcat(kids[1:], k, j, m) {
			return true
		}
	}
	return false
}

func encWord(w []WordSym) string {
	var b strings.Builder
	for _, s := range w {
		b.WriteString(s.Label)
		if s.Inverse {
			b.WriteByte('-')
		}
		b.WriteByte(' ')
	}
	return b.String()
}

func decWord(s string) []WordSym {
	var out []WordSym
	for _, f := range strings.Fields(s) {
		if strings.HasSuffix(f, "-") {
			out = append(out, isym(strings.TrimSuffix(f, "-")))
		} else {
			out = append(out, sym(f))
		}
	}
	return out
}

// enumLang returns the words of L(e) up to maxLen, as encoded strings.
// Returns nil if the language fragment exceeds cap words (caller skips).
func enumLang(e *rpq.Expr, maxLen, cap int) map[string]bool {
	overflow := false
	var enum func(e *rpq.Expr) map[string]bool
	combine := func(a, b map[string]bool) map[string]bool {
		out := map[string]bool{}
		for x := range a {
			for y := range b {
				w := decWord(x + " " + y)
				if len(w) <= maxLen {
					out[encWord(w)] = true
					if len(out) > cap {
						overflow = true
						return out
					}
				}
			}
		}
		return out
	}
	enum = func(e *rpq.Expr) map[string]bool {
		switch e.Op {
		case rpq.OpEps:
			return map[string]bool{"": true}
		case rpq.OpLabel:
			if maxLen < 1 {
				return map[string]bool{}
			}
			return map[string]bool{encWord(word(WordSym{e.Label, e.Inverse})): true}
		case rpq.OpAny:
			panic("enumLang: OpAny unsupported")
		case rpq.OpConcat:
			cur := map[string]bool{"": true}
			for _, k := range e.Kids {
				cur = combine(cur, enum(k))
				if overflow {
					return cur
				}
			}
			return cur
		case rpq.OpAlt:
			out := map[string]bool{}
			for _, k := range e.Kids {
				for w := range enum(k) {
					out[w] = true
				}
			}
			return out
		case rpq.OpStar, rpq.OpPlus:
			kid := enum(e.Kids[0])
			out := map[string]bool{}
			if e.Op == rpq.OpStar {
				out[""] = true
			}
			cur := map[string]bool{"": true}
			for iter := 0; iter <= maxLen; iter++ {
				cur = combine(cur, kid)
				if overflow {
					return out
				}
				grew := false
				for w := range cur {
					if !out[w] {
						out[w] = true
						grew = true
					}
				}
				if !grew {
					break
				}
			}
			if e.Op == rpq.OpPlus {
				// ε belongs to L(x+) iff ε ∈ L(x); combine starting from kid
				// already ensures that, since cur started at ε and one
				// iteration was applied.
				delete(out, "")
				for w := range kid {
					out[w] = true
				}
				if kid[""] {
					out[""] = true
				}
			}
			return out
		case rpq.OpOpt:
			out := enum(e.Kids[0])
			out[""] = true
			return out
		}
		panic("enumLang: unknown op")
	}
	res := enum(e)
	if overflow {
		return nil
	}
	return res
}

// editDist is the weighted edit distance from w1 (the regex word) to w2 (the
// data word): delete symbols of w1, insert symbols of w2, substitute, or
// align a symbol of w1 with one of w2 at align's cost (negative when they do
// not align).
func editDist(w1, w2 []WordSym, c EditCosts, align func(q, x WordSym) int32) int32 {
	m, n := len(w1), len(w2)
	dp := make([][]int32, m+1)
	for i := range dp {
		dp[i] = make([]int32, n+1)
	}
	for i := 1; i <= m; i++ {
		dp[i][0] = dp[i-1][0] + c.Delete
	}
	for j := 1; j <= n; j++ {
		dp[0][j] = dp[0][j-1] + c.Insert
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			best := dp[i-1][j] + c.Delete
			if v := dp[i][j-1] + c.Insert; v < best {
				best = v
			}
			subCost := c.Substitute
			if a := align(w1[i-1], w2[j-1]); a >= 0 && a < subCost {
				subCost = a
			}
			if v := dp[i-1][j-1] + subCost; v < best {
				best = v
			}
			dp[i][j] = best
		}
	}
	return dp[m][n]
}

// sameSym aligns equal symbols at no cost.
func sameSym(q, x WordSym) int32 {
	if q == x {
		return 0
	}
	return -1
}

// relaxedSym aligns equal symbols at no cost, and q with x in the same
// direction at k·β when x is a superproperty of q at k steps or a
// subproperty of such a superproperty: RELAX rule (i) read off the ontology
// rather than off Relax.
func relaxedSym(ont *ontology.Ontology, costs RelaxCosts) func(q, x WordSym) int32 {
	return func(q, x WordSym) int32 {
		if q == x {
			return 0
		}
		if q.Inverse != x.Inverse {
			return -1
		}
		for _, anc := range ont.PropertyAncestors(q.Label) {
			if anc.Dist > 0 && (anc.Name == x.Label || slices.Contains(ont.PropertyDescendants(anc.Name), x.Label)) {
				return int32(anc.Dist) * costs.Beta
			}
		}
		return -1
	}
}

// --- exact construction --------------------------------------------------

func TestThompsonAccepts(t *testing.T) {
	cases := []struct {
		re     string
		w      []WordSym
		accept bool
	}{
		{"a", word(sym("a")), true},
		{"a", word(sym("b")), false},
		{"a", word(), false},
		{"a-", word(isym("a")), true},
		{"a-", word(sym("a")), false},
		{"_", word(sym("zzz")), true},
		{"_", word(isym("zzz")), false},
		{"_-", word(isym("q")), true},
		{"()", word(), true},
		{"()", word(sym("a")), false},
		{"a.b", word(sym("a"), sym("b")), true},
		{"a.b", word(sym("b"), sym("a")), false},
		{"a|b", word(sym("b")), true},
		{"a*", word(), true},
		{"a*", word(sym("a"), sym("a"), sym("a")), true},
		{"a*", word(sym("a"), sym("b")), false},
		{"a+", word(), false},
		{"a+", word(sym("a")), true},
		{"a?", word(), true},
		{"a?", word(sym("a")), true},
		{"a?", word(sym("a"), sym("a")), false},
		{"prereq*.next+.prereq", word(sym("next"), sym("prereq")), true},
		{"prereq*.next+.prereq", word(sym("prereq"), sym("next"), sym("next"), sym("prereq")), true},
		{"prereq*.next+.prereq", word(sym("prereq"), sym("prereq")), false},
		{"isLocatedIn-.gradFrom", word(isym("isLocatedIn"), sym("gradFrom")), true},
	}
	for _, c := range cases {
		n := FromRegexp(rpq.MustParse(c.re))
		cost, ok := n.MinCostWord(c.w, nil)
		if ok != c.accept {
			t.Errorf("%q on %v: accept=%v, want %v", c.re, c.w, ok, c.accept)
			continue
		}
		if ok && cost != 0 {
			t.Errorf("%q on %v: cost=%d, want 0", c.re, c.w, cost)
		}
	}
}

func randWord(rng *rand.Rand, maxLen int, alphabet []string) []WordSym {
	n := rng.Intn(maxLen + 1)
	w := make([]WordSym, n)
	for i := range w {
		w[i] = WordSym{Label: alphabet[rng.Intn(len(alphabet))], Inverse: rng.Intn(2) == 0}
	}
	return w
}

func randExpr(rng *rand.Rand, depth int, allowAny bool) *rpq.Expr {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return rpq.Eps()
		case 1:
			if allowAny {
				return rpq.Any()
			}
			return rpq.Label("a")
		case 2:
			if allowAny {
				return rpq.AnyInv()
			}
			return rpq.Inv("b")
		case 3:
			return rpq.Inv(string(rune('a' + rng.Intn(3))))
		default:
			return rpq.Label(string(rune('a' + rng.Intn(3))))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return rpq.Concat(randExpr(rng, depth-1, allowAny), randExpr(rng, depth-1, allowAny))
	case 1:
		return rpq.Alt(randExpr(rng, depth-1, allowAny), randExpr(rng, depth-1, allowAny))
	case 2:
		return rpq.Star(randExpr(rng, depth-1, allowAny))
	case 3:
		return rpq.Plus(randExpr(rng, depth-1, allowAny))
	case 4:
		return rpq.Opt(randExpr(rng, depth-1, allowAny))
	default:
		return randExpr(rng, depth-1, allowAny)
	}
}

// Property: Thompson NFA acceptance (cost 0) agrees with the AST membership
// DP on random expressions and words.
func TestQuickThompsonAgainstAST(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "b", "c"}
	for i := 0; i < 400; i++ {
		e := randExpr(rng, 3, true)
		n := FromRegexp(e)
		for j := 0; j < 8; j++ {
			w := randWord(rng, 4, alphabet)
			got := false
			if cost, ok := n.MinCostWord(w, nil); ok && cost == 0 {
				got = true
			}
			want := matchAST(e, w)
			if got != want {
				t.Fatalf("iter %d: %s on %v: NFA=%v AST=%v", i, e, w, got, want)
			}
		}
	}
}

// Property: ε-removal preserves the cost function (and eliminates every ε).
func TestQuickEpsilonRemovalPreservesCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []string{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		e := randExpr(rng, 3, true)
		n := FromRegexp(e)
		if i%3 == 0 {
			n = n.Approx(DefaultEditCosts())
		}
		nf := n.RemoveEpsilon()
		for _, tr := range nf.Trans {
			if tr.Kind == Eps {
				t.Fatalf("iter %d: ε-transition survives removal", i)
			}
		}
		for j := 0; j < 8; j++ {
			w := randWord(rng, 4, alphabet)
			c1, ok1 := n.MinCostWord(w, nil)
			c2, ok2 := nf.MinCostWord(w, nil)
			if ok1 != ok2 || (ok1 && c1 != c2) {
				t.Fatalf("iter %d: %s on %v: before=(%d,%v) after=(%d,%v)", i, e, w, c1, ok1, c2, ok2)
			}
		}
	}
}

// Property: reversal matches the reversed-and-inverted word.
func TestQuickReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []string{"a", "b"}
	for i := 0; i < 200; i++ {
		e := randExpr(rng, 3, true)
		n := FromRegexp(e)
		rev, err := n.Reverse()
		if err != nil {
			t.Fatalf("Reverse: %v", err)
		}
		for j := 0; j < 6; j++ {
			w := randWord(rng, 4, alphabet)
			rw := make([]WordSym, len(w))
			for k, s := range w {
				rw[len(w)-1-k] = WordSym{Label: s.Label, Inverse: !s.Inverse}
			}
			c1, ok1 := n.MinCostWord(w, nil)
			c2, ok2 := rev.MinCostWord(rw, nil)
			if ok1 != ok2 || (ok1 && c1 != c2) {
				t.Fatalf("iter %d: %s on %v: fwd=(%d,%v) rev=(%d,%v)", i, e, w, c1, ok1, c2, ok2)
			}
		}
	}
}

func TestReverseAgreesWithASTReversal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	alphabet := []string{"a", "b"}
	for i := 0; i < 100; i++ {
		e := randExpr(rng, 3, true)
		nRev, err := FromRegexp(e).Reverse()
		if err != nil {
			t.Fatal(err)
		}
		astRev := FromRegexp(e.Reverse())
		for j := 0; j < 6; j++ {
			w := randWord(rng, 4, alphabet)
			c1, ok1 := nRev.MinCostWord(w, nil)
			c2, ok2 := astRev.MinCostWord(w, nil)
			if ok1 != ok2 || (ok1 && c1 != c2) {
				t.Fatalf("iter %d: %s: NFA-reverse=(%d,%v) AST-reverse=(%d,%v) on %v", i, e, c1, ok1, c2, ok2, w)
			}
		}
	}
}

func TestReverseRequiresSingleWeightlessFinal(t *testing.T) {
	n := FromRegexp(rpq.MustParse("a.b*")).Approx(DefaultEditCosts()).RemoveEpsilon()
	if len(n.Finals) > 1 {
		if _, err := n.Reverse(); err == nil {
			t.Fatal("Reverse accepted a multi-final automaton")
		}
	}
	n2 := FromRegexp(rpq.MustParse("a"))
	for s := range n2.Finals {
		n2.Finals[s] = 3
	}
	if _, err := n2.Reverse(); err == nil {
		t.Fatal("Reverse accepted a weighted final state")
	}
}

// --- APPROX --------------------------------------------------------------

func TestApproxFixedCases(t *testing.T) {
	costs := DefaultEditCosts()
	cases := []struct {
		re   string
		w    []WordSym
		want int32
	}{
		{"a", word(sym("a")), 0},
		{"a", word(sym("b")), 1},           // substitution
		{"a", word(), 1},                   // deletion
		{"a", word(sym("a"), sym("b")), 1}, // insertion
		{"a.b", word(sym("a"), sym("b")), 0},
		{"a.b", word(sym("a")), 1},
		{"a.b", word(), 2},
		{"a.b", word(sym("a"), sym("c")), 1},
		{"a.b", word(sym("c"), sym("d")), 2},
		{"a.b", word(sym("a"), sym("x"), sym("b")), 1},
		{"a", word(isym("a")), 1}, // direction flip = substitution
		{"a*", word(sym("b"), sym("b")), 2},
		{"a|b", word(sym("c")), 1},
		// The paper's Example 2: isLocatedIn−.gradFrom approximated to
		// isLocatedIn−.gradFrom− by substituting gradFrom with gradFrom−.
		{"isLocatedIn-.gradFrom", word(isym("isLocatedIn"), isym("gradFrom")), 1},
	}
	for _, c := range cases {
		n := FromRegexp(rpq.MustParse(c.re)).Approx(costs).RemoveEpsilon()
		got, ok := n.MinCostWord(c.w, nil)
		if !ok {
			t.Errorf("%q on %v: no match, want cost %d", c.re, c.w, c.want)
			continue
		}
		if got != c.want {
			t.Errorf("%q on %v: cost=%d, want %d", c.re, c.w, got, c.want)
		}
	}
}

func TestApproxCustomCosts(t *testing.T) {
	costs := EditCosts{Insert: 5, Delete: 3, Substitute: 2}
	n := FromRegexp(rpq.MustParse("a.b")).Approx(costs).RemoveEpsilon()
	cases := []struct {
		w    []WordSym
		want int32
	}{
		{word(sym("a"), sym("b")), 0},
		{word(sym("a")), 3},                     // delete b
		{word(sym("a"), sym("c")), 2},           // substitute
		{word(sym("a"), sym("b"), sym("z")), 5}, // insert
		{word(), 6},                             // delete both
	}
	for _, c := range cases {
		got, ok := n.MinCostWord(c.w, nil)
		if !ok || got != c.want {
			t.Errorf("on %v: cost=(%d,%v), want %d", c.w, got, ok, c.want)
		}
	}
}

// Property: the APPROX automaton that Build serves computes min over
// w' ∈ L(R) of the weighted edit distance from w' to the data word (unit
// costs), verified against explicit language enumeration.
func TestQuickApproxEqualsEditDistance(t *testing.T) {
	checkServedEditDistance(t, BuildOptions{Mode: Approx, Edit: DefaultEditCosts()}, nil, sameSym)
}

// Property: the FLEX automaton that Build serves computes the same minimum
// with RELAX rule (i) as an alignment: over a ⊑ b ⊑ c, a query a meets a
// data b at β and a data c at 2β, and each of those may still be edited.
// Edits cost more than a relaxation here, so a pipeline that lost Relax
// would be caught.
func TestQuickFlexEqualsRelaxedEditDistance(t *testing.T) {
	ont := ontology.New()
	ont.AddSubproperty("a", "b")
	ont.AddSubproperty("b", "c")
	opts := BuildOptions{Mode: Flex, Edit: EditCosts{Insert: 2, Delete: 2, Substitute: 3}, RelaxCosts: DefaultRelaxCosts()}
	checkServedEditDistance(t, opts, ont, relaxedSym(ont, opts.RelaxCosts))
}

// checkServedEditDistance holds buildNFA's automaton for random expressions
// over {a, b, c} to editDist over their enumerated languages, at align.
func checkServedEditDistance(t *testing.T, opts BuildOptions, ont *ontology.Ontology, align func(q, x WordSym) int32) {
	rng := rand.New(rand.NewSource(53))
	alphabet := []string{"a", "b", "c"}
	checked := 0
	for i := 0; i < 300 && checked < 120; i++ {
		e := randExpr(rng, 3, false)
		n, err := buildNFA(e, ont, opts)
		if err != nil {
			t.Fatalf("iter %d: %s: %v", i, e, err)
		}
		for j := 0; j < 4; j++ {
			w := randWord(rng, 2, alphabet)
			maxLen := 2*len(w) + 4
			lang := enumLang(e, maxLen, 3000)
			if lang == nil {
				continue // language fragment too large; skip trial
			}
			want := int32(-1)
			for enc := range lang {
				d := editDist(decWord(enc), w, opts.Edit, align)
				if want < 0 || d < want {
					want = d
				}
			}
			if want < 0 {
				continue // empty language fragment (cannot happen with our ops)
			}
			got, ok := n.MinCostWord(w, ont)
			if !ok {
				t.Fatalf("iter %d: %v %s on %v: no match, want %d", i, opts.Mode, e, w, want)
			}
			if got != want {
				t.Fatalf("iter %d: %v %s on %v: cost=%d, enumeration says %d", i, opts.Mode, e, w, got, want)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d trials checked; enumeration cap too tight", checked)
	}
}

// --- RELAX ---------------------------------------------------------------

func yagoOnt() *ontology.Ontology {
	o := ontology.New()
	for _, p := range []string{"gradFrom", "happenedIn", "participatedIn", "bornIn", "livesIn", "diedIn"} {
		o.AddSubproperty(p, "relationLocatedByObject")
	}
	o.AddSubproperty("marriedTo", "hasPersonalRelation")
	o.AddSubproperty("hasChild", "hasPersonalRelation")
	o.SetDomain("gradFrom", "wordnet_person")
	o.SetRange("gradFrom", "wordnet_university")
	return o
}

func TestRelaxExample3(t *testing.T) {
	// Paper Example 3: relaxing gradFrom to relationLocatedByObject at cost β
	// allows happenedIn and participatedIn to be matched.
	o := yagoOnt()
	n := FromRegexp(rpq.MustParse("isLocatedIn-.gradFrom")).Relax(o, DefaultRelaxCosts(), false).RemoveEpsilon()
	cases := []struct {
		w      []WordSym
		want   int32
		accept bool
	}{
		{word(isym("isLocatedIn"), sym("gradFrom")), 0, true},
		{word(isym("isLocatedIn"), sym("happenedIn")), 1, true},
		{word(isym("isLocatedIn"), sym("participatedIn")), 1, true},
		{word(isym("isLocatedIn"), sym("relationLocatedByObject")), 1, true},
		{word(isym("isLocatedIn"), sym("somethingElse")), 0, false},
		{word(sym("isLocatedIn"), sym("gradFrom")), 0, false}, // direction not relaxed
	}
	for _, c := range cases {
		got, ok := n.MinCostWord(c.w, o)
		if ok != c.accept {
			t.Errorf("on %v: accept=%v, want %v", c.w, ok, c.accept)
			continue
		}
		if ok && got != c.want {
			t.Errorf("on %v: cost=%d, want %d", c.w, got, c.want)
		}
	}
}

func TestRelaxMultiLevel(t *testing.T) {
	o := ontology.New()
	o.AddSubproperty("p", "q")
	o.AddSubproperty("q", "r")
	o.AddSubproperty("p2", "q")
	costs := RelaxCosts{Beta: 2}
	n := FromRegexp(rpq.MustParse("p")).Relax(o, costs, false).RemoveEpsilon()
	// sibling p2 is matched via the common parent q at one sp-step: cost 2.
	if got, ok := n.MinCostWord(word(sym("p2")), o); !ok || got != 2 {
		t.Errorf("sibling p2: (%d,%v), want (2,true)", got, ok)
	}
	// grandparent r at two steps: cost 4.
	if got, ok := n.MinCostWord(word(sym("r")), o); !ok || got != 4 {
		t.Errorf("grandparent r: (%d,%v), want (4,true)", got, ok)
	}
	// exact stays free.
	if got, ok := n.MinCostWord(word(sym("p")), o); !ok || got != 0 {
		t.Errorf("exact p: (%d,%v), want (0,true)", got, ok)
	}
}

func TestRelaxInverseDirectionPreserved(t *testing.T) {
	o := yagoOnt()
	n := FromRegexp(rpq.MustParse("gradFrom-")).Relax(o, DefaultRelaxCosts(), false).RemoveEpsilon()
	if got, ok := n.MinCostWord(word(isym("happenedIn")), o); !ok || got != 1 {
		t.Errorf("relaxed inverse: (%d,%v), want (1,true)", got, ok)
	}
	if _, ok := n.MinCostWord(word(sym("happenedIn")), o); ok {
		t.Error("relaxation flipped the traversal direction")
	}
}

func TestRelaxDoesNotTouchTypeOrUnknownLabels(t *testing.T) {
	o := yagoOnt()
	base := FromRegexp(rpq.MustParse("type.unknownLabel"))
	relaxed := base.Relax(o, DefaultRelaxCosts(), false)
	if len(relaxed.Trans) != len(base.Trans) {
		t.Fatalf("RELAX added transitions for type/unknown labels: %d -> %d", len(base.Trans), len(relaxed.Trans))
	}
}

func TestRelaxRule2AddsTypeTransition(t *testing.T) {
	o := yagoOnt()
	n := FromRegexp(rpq.MustParse("gradFrom")).Relax(o, RelaxCosts{Beta: 1, Gamma: 7}, true)
	var found *Transition
	for i := range n.Trans {
		tr := &n.Trans[i]
		if tr.TargetClass != "" {
			found = tr
		}
	}
	if found == nil {
		t.Fatal("rule (ii) transition missing")
	}
	if found.Label != graph.TypeLabel || found.TargetClass != "wordnet_person" || found.Cost != 7 {
		t.Fatalf("rule (ii) transition = %+v, want type→wordnet_person at cost 7", found)
	}
	// Reverse direction uses the range class.
	n2 := FromRegexp(rpq.MustParse("gradFrom-")).Relax(o, RelaxCosts{Beta: 1, Gamma: 7}, true)
	var found2 *Transition
	for i := range n2.Trans {
		if n2.Trans[i].TargetClass != "" {
			found2 = &n2.Trans[i]
		}
	}
	if found2 == nil || found2.TargetClass != "wordnet_university" {
		t.Fatalf("rule (ii) on inverse = %+v, want range class wordnet_university", found2)
	}
}

// --- Trim ----------------------------------------------------------------

func TestTrimRemovesUselessStates(t *testing.T) {
	n := FromRegexp(rpq.MustParse("a.b|c")).RemoveEpsilon()
	// RemoveEpsilon already trims; add an unreachable state manually.
	n.NumStates++
	n.Trans = append(n.Trans, Transition{From: n.NumStates - 1, To: n.Start, Kind: Sym, Label: "x", Dir: graph.Out})
	trimmed := n.Trim()
	if trimmed.NumStates >= n.NumStates {
		t.Fatalf("Trim kept %d states, had %d", trimmed.NumStates, n.NumStates)
	}
	for _, w := range [][]WordSym{word(sym("a"), sym("b")), word(sym("c")), word(sym("a"))} {
		c1, ok1 := n.MinCostWord(w, nil)
		c2, ok2 := trimmed.MinCostWord(w, nil)
		if ok1 != ok2 || (ok1 && c1 != c2) {
			t.Fatalf("Trim changed semantics on %v", w)
		}
	}
}

// --- final weights -------------------------------------------------------

func TestFinalWeightAfterEpsilonRemoval(t *testing.T) {
	// R = a with APPROX: the start state can reach the final state through a
	// deleted 'a' (ε at cost 1), so after ε-removal the start state is final
	// with weight 1 — the paper's "final states having an additional,
	// positive weight".
	n := FromRegexp(rpq.MustParse("a")).Approx(DefaultEditCosts()).RemoveEpsilon()
	w, ok := n.IsFinal(n.Start)
	if !ok {
		t.Fatal("start state not final after APPROX ε-removal")
	}
	if w != 1 {
		t.Fatalf("start final weight = %d, want 1", w)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := FromRegexp(rpq.MustParse("a.b"))
	c := n.Clone()
	c.Trans[0].Label = "zzz"
	for s := range c.Finals {
		c.Finals[s] = 99
	}
	if n.Trans[0].Label == "zzz" {
		t.Fatal("Clone shares transition storage")
	}
	for _, w := range n.Finals {
		if w == 99 {
			t.Fatal("Clone shares final map")
		}
	}
}
