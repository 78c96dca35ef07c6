package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Golden maps scale → request key → the shape every response to that request
// must have. It is written by -update-golden from a run of this commit's
// server and committed; every response of every later run is checked against
// it, so a change that alters an answer set, a distance or a top-k cut fails
// the benchmark instead of being timed.
type Golden map[string]map[string]Shape

// LoadGolden reads golden.json.
func LoadGolden(path string) (Golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Save writes golden.json with sorted keys, one request per line.
func (g Golden) Save(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // the query texts hold "<-"
	buf.WriteString("{\n")
	scales := sortedKeys(g)
	for i, scale := range scales {
		fmt.Fprintf(&buf, " %q: {\n", scale)
		keys := sortedKeys(g[scale])
		for j, k := range keys {
			buf.WriteString("  ")
			_ = enc.Encode(k) // a string and a flat struct cannot fail to encode
			buf.Truncate(buf.Len() - 1)
			buf.WriteString(": ")
			_ = enc.Encode(g[scale][k])
			buf.Truncate(buf.Len() - 1)
			buf.WriteString(comma(j, len(keys)))
		}
		buf.WriteString(" }" + comma(i, len(scales)))
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func comma(i, n int) string {
	if i < n-1 {
		return ",\n"
	}
	return "\n"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Check compares a reply's shape with the pinned one. The tuple hash is
// compared only for exhaustive requests (limit 0): a top-k may break ties at
// its last distance either way, an exhaustive answer set may not differ.
func Check(want Shape, got Shape, exhaustive bool) error {
	if got.Rows != want.Rows {
		return fmt.Errorf("%d rows, golden has %d", got.Rows, want.Rows)
	}
	if len(got.Hist) != len(want.Hist) {
		return fmt.Errorf("distance histogram %v, golden has %v", got.Hist, want.Hist)
	}
	for d := range got.Hist {
		if got.Hist[d] != want.Hist[d] {
			return fmt.Errorf("distance histogram %v, golden has %v", got.Hist, want.Hist)
		}
	}
	if exhaustive && got.Hash != want.Hash {
		return fmt.Errorf("answer-set hash %x, golden has %x", got.Hash, want.Hash)
	}
	return nil
}
