package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a strict parser for the Prometheus text exposition format —
// the verification half of the metrics layer. It is deliberately pickier
// than a production scraper: every sample must belong to a family introduced
// by a preceding # HELP + # TYPE pair, histogram bucket series must be
// cumulative with a +Inf bucket that matches _count, and any line that is not
// a well-formed comment or sample is an error. The golden tests and the CI
// /metricsz smoke both run scrapes through ParseExposition, so a formatting
// regression fails loudly instead of silently producing metrics some
// backends would drop.

// ExpoSample is one parsed sample line.
type ExpoSample struct {
	Name   string // full sample name, including _bucket/_sum/_count suffixes
	Labels map[string]string
	Value  float64
}

// ExpoFamily is one parsed metric family.
type ExpoFamily struct {
	Name    string
	Help    string
	Kind    string // counter | gauge | histogram
	Samples []ExpoSample
}

// ParseExposition parses (and validates) a text-format exposition. It returns
// the families keyed by name, or the first violation found.
func ParseExposition(r io.Reader) (map[string]*ExpoFamily, error) {
	fams := map[string]*ExpoFamily{}
	var cur *ExpoFamily
	pendingHelp := "" // HELP seen, TYPE not yet
	pendingName := ""

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("exposition line %d: %s (in %q)", lineNo, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return nil, fail("malformed HELP line")
			}
			if _, dup := fams[name]; dup {
				return nil, fail("duplicate family %s", name)
			}
			pendingHelp, pendingName = unescapeHelp(help), name
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# TYPE "):]
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return nil, fail("malformed TYPE line")
			}
			if name != pendingName {
				return nil, fail("TYPE %s without a preceding HELP for it", name)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				return nil, fail("unsupported type %q", kind)
			}
			cur = &ExpoFamily{Name: name, Help: pendingHelp, Kind: kind}
			fams[name] = cur
			pendingName, pendingHelp = "", ""
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fail("unrecognised comment")
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fail("%v", err)
		}
		if cur == nil {
			return nil, fail("sample before any HELP/TYPE header")
		}
		if !sampleBelongs(cur, sample.Name) {
			return nil, fail("sample %s does not belong to family %s (%s)", sample.Name, cur.Name, cur.Kind)
		}
		cur.Samples = append(cur.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pendingName != "" {
		return nil, fmt.Errorf("exposition: HELP %s without TYPE", pendingName)
	}
	for _, f := range fams {
		if err := validateFamily(f); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

func sampleBelongs(f *ExpoFamily, sampleName string) bool {
	if f.Kind == "histogram" {
		return sampleName == f.Name+"_bucket" ||
			sampleName == f.Name+"_sum" ||
			sampleName == f.Name+"_count"
	}
	return sampleName == f.Name
}

// parseSample parses `name{l1="v1",...} value` (no timestamps: this layer
// never writes them, so a timestamp is a violation too).
func parseSample(line string) (ExpoSample, error) {
	s := ExpoSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	if i < len(line) && line[i] == '{' {
		rest, err := parseLabels(line[i:], s.Labels)
		if err != nil {
			return s, err
		}
		line = rest
	} else {
		line = line[i:]
	}
	if len(line) == 0 || line[0] != ' ' {
		return s, fmt.Errorf("expected single space before value")
	}
	valText := line[1:]
	if valText == "" || strings.ContainsAny(valText, " \t") {
		return s, fmt.Errorf("malformed value %q (timestamps are not allowed)", valText)
	}
	v, err := parseValue(valText)
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {name="value",...} block, returning the remainder of
// the line.
func parseLabels(s string, out map[string]string) (string, error) {
	if s[0] != '{' {
		return "", fmt.Errorf("expected '{'")
	}
	s = s[1:]
	for {
		if len(s) == 0 {
			return "", fmt.Errorf("unterminated label block")
		}
		if s[0] == '}' {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("malformed label pair")
		}
		name := s[:eq]
		if !validParsedLabelName(name) {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := out[name]; dup {
			return "", fmt.Errorf("duplicate label %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label value must be quoted")
		}
		val, rest, err := parseQuoted(s)
		if err != nil {
			return "", err
		}
		out[name] = val
		s = rest
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
			continue
		}
		if len(s) == 0 || s[0] != '}' {
			return "", fmt.Errorf("expected ',' or '}' after label value")
		}
	}
}

// parseQuoted consumes a double-quoted, backslash-escaped string.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape in label value")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// unescapeHelp reverses the writer's HELP escaping (\\ and \n).
func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed value %q", s)
	}
	return v, nil
}

// validParsedLabelName accepts what the exposition format allows, including
// the reserved le (which the writer-side validLabelName rejects for user
// labels).
func validParsedLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !letter && !(i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

// validateFamily type-checks every sample: finite non-negative counters,
// finite gauges, and internally consistent histograms (per label set:
// ascending le bounds, cumulative bucket counts, +Inf present and equal to
// _count, _sum and _count present exactly once).
func validateFamily(f *ExpoFamily) error {
	switch f.Kind {
	case "counter":
		for _, s := range f.Samples {
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0 {
				return fmt.Errorf("exposition: counter %s has invalid value %v", f.Name, s.Value)
			}
		}
	case "gauge":
		for _, s := range f.Samples {
			if math.IsNaN(s.Value) {
				return fmt.Errorf("exposition: gauge %s has NaN value", f.Name)
			}
		}
	case "histogram":
		return validateHistogram(f)
	}
	return nil
}

type histSeries struct {
	les    []float64
	counts []float64
	sum    *float64
	count  *float64
}

func validateHistogram(f *ExpoFamily) error {
	series := map[string]*histSeries{}
	get := func(labels map[string]string) *histSeries {
		key := labelKey(labels)
		hs, ok := series[key]
		if !ok {
			hs = &histSeries{}
			series[key] = hs
		}
		return hs
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			leText, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("exposition: %s bucket without le label", f.Name)
			}
			le, err := parseValue(leText)
			if err != nil || math.IsNaN(le) {
				return fmt.Errorf("exposition: %s has invalid le %q", f.Name, leText)
			}
			hs := get(bucketIdentity(s.Labels))
			hs.les = append(hs.les, le)
			hs.counts = append(hs.counts, s.Value)
		case f.Name + "_sum":
			hs := get(s.Labels)
			if hs.sum != nil {
				return fmt.Errorf("exposition: duplicate %s_sum", f.Name)
			}
			v := s.Value
			hs.sum = &v
		case f.Name + "_count":
			hs := get(s.Labels)
			if hs.count != nil {
				return fmt.Errorf("exposition: duplicate %s_count", f.Name)
			}
			v := s.Value
			hs.count = &v
		}
	}
	for key, hs := range series {
		if len(hs.les) == 0 {
			return fmt.Errorf("exposition: histogram %s{%s} has no buckets", f.Name, key)
		}
		if hs.sum == nil || hs.count == nil {
			return fmt.Errorf("exposition: histogram %s{%s} missing _sum or _count", f.Name, key)
		}
		if !math.IsInf(hs.les[len(hs.les)-1], 1) {
			return fmt.Errorf("exposition: histogram %s{%s} missing +Inf bucket", f.Name, key)
		}
		for i := 1; i < len(hs.les); i++ {
			if !(hs.les[i] > hs.les[i-1]) {
				return fmt.Errorf("exposition: histogram %s{%s} le bounds not ascending", f.Name, key)
			}
			if !(hs.counts[i] >= hs.counts[i-1]) { // a NaN count is not cumulative either
				return fmt.Errorf("exposition: histogram %s{%s} bucket counts not cumulative", f.Name, key)
			}
		}
		if hs.counts[len(hs.counts)-1] != *hs.count {
			return fmt.Errorf("exposition: histogram %s{%s} +Inf bucket %v != _count %v",
				f.Name, key, hs.counts[len(hs.counts)-1], *hs.count)
		}
	}
	return nil
}

// bucketIdentity strips the le label so bucket samples group with their
// series' _sum/_count.
func bucketIdentity(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}

func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}
