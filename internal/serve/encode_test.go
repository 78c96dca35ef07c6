package serve

import (
	"encoding/json"
	"math"
	"testing"

	"omega"
)

// encodeRow runs the hand-written encoder the way the row sink does: prefix
// once, then the row.
func encodeRow(r rowLine) string {
	prefix := appendRowPrefix(nil, r.Vars)
	return string(appendRow(nil, prefix, r.Labels, r.Nodes, r.Dist))
}

// referenceRow is what the server wrote before the encoder existed:
// encoding/json over rowLine, newline-terminated.
func referenceRow(t *testing.T, r rowLine) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestAppendRowMatchesEncodingJSON pins the encoder to encoding/json on the
// strings that make JSON string escaping interesting, in labels and in
// variable names, over heads of zero to four columns.
func TestAppendRowMatchesEncodingJSON(t *testing.T) {
	nasty := []string{
		"",
		"Alumni_0_Episode_1",
		`say "hi"`,
		`back\slash`,
		"tab\there", "line\nfeed", "carriage\rreturn", "back\bspace", "form\ffeed",
		"nul\x00byte", "unit\x1fsep", "del\x7f",
		"<script>&amp;</script>",
		"line\u2028sep", "para\u2029sep", "\u2028", "ends with \u2029",
		"caf\u00e9 na\u00efve \u4e16\u754c \U0001F600",
		"bad\xffutf8", "\xc3", "trunc\xe2\x80", "\xe2\x80\xa8 is U+2028", "\xed\xa0\x80 surrogate",
		"mixed \"\\<\xff\u2028>\x01 all at once",
	}
	for _, s := range nasty {
		for cols := 0; cols <= 4; cols++ {
			r := rowLine{Vars: make([]string, cols), Labels: make([]string, cols), Nodes: make([]omega.NodeID, cols), Dist: cols - 2}
			for i := 0; i < cols; i++ {
				r.Vars[i] = nasty[(i*7+len(s))%len(nasty)]
				r.Labels[i] = s
				r.Nodes[i] = omega.NodeID(i * 1000003)
			}
			if cols > 0 {
				r.Vars[0] = s
			}
			if got, want := encodeRow(r), referenceRow(t, r); got != want {
				t.Errorf("%q, %d columns:\n got %q\nwant %q", s, cols, got, want)
			}
		}
	}
	for _, r := range []rowLine{
		{Vars: []string{"X"}, Labels: []string{"n"}, Nodes: []omega.NodeID{math.MaxInt32}, Dist: math.MaxInt32},
		{Vars: []string{"X"}, Labels: []string{"n"}, Nodes: []omega.NodeID{math.MinInt32}, Dist: math.MinInt64},
		{Vars: []string{"X", "Y"}, Labels: []string{"a", "b"}, Nodes: []omega.NodeID{-1, 0}, Dist: math.MaxInt64},
	} {
		if got, want := encodeRow(r), referenceRow(t, r); got != want {
			t.Errorf("got %q\nwant %q", got, want)
		}
	}
}

// FuzzAppendRow: for arbitrary labels, variable names, ids and distances the
// appended line is byte for byte json.Marshal(rowLine{…}) + "\n". The four
// strings fill up to four columns (cols%5 of them), rotated so each serves
// as a variable name in one column and a label in another.
func FuzzAppendRow(f *testing.F) {
	f.Add("X", "Y", "Alumni_0_Episode_1", "Librarians", uint8(2), int32(7), int64(0))
	f.Add(`"`, `\`, "<>&", "\u2028\u2029", uint8(4), int32(-1), int64(-3))
	f.Add("\x00\x1f\x7f", "\xff\xfe", "\b\f\n\r\t", "", uint8(3), int32(math.MaxInt32), int64(math.MaxInt64))
	f.Add("", "", "", "", uint8(0), int32(math.MinInt32), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, a, b, c, d string, cols uint8, id int32, dist int64) {
		strs := [4]string{a, b, c, d}
		n := int(cols % 5)
		r := rowLine{Vars: make([]string, n), Labels: make([]string, n), Nodes: make([]omega.NodeID, n), Dist: int(dist)}
		for i := 0; i < n; i++ {
			r.Vars[i] = strs[i]
			r.Labels[i] = strs[(i+1)%4]
			r.Nodes[i] = omega.NodeID(id) ^ omega.NodeID(i*0x01000193)
		}
		if got, want := encodeRow(r), referenceRow(t, r); got != want {
			t.Fatalf("encoder diverged from encoding/json:\n got %q\nwant %q", got, want)
		}
	})
}
