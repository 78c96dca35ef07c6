package obs

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzExposition holds ParseExposition to its documented invariants on
// fuzzed text: it never panics, and whatever it accepts
//
//   - has every family introduced by a # HELP line and then a # TYPE line
//     naming it with the family's kind, and every sample line of the text in
//     exactly one family, under a name that family owns;
//   - has finite non-negative counters and non-NaN gauges;
//   - has, per histogram series, ascending le bounds ending at +Inf,
//     cumulative bucket counts, the +Inf bucket equal to _count, and one
//     _sum and one _count.
//
// The seed corpus (testdata/fuzz) holds an omega-serve /metricsz scrape
// after two L4All L1 queries and a few malformed expositions.
func FuzzExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		// The parser reads lines as bufio.ScanLines does: split at \n, one
		// trailing \r dropped.
		introduced := map[string]string{} // family name → kind of its TYPE line
		helped := map[string]bool{}
		sampleLines := 0
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSuffix(line, "\r")
			switch {
			case strings.HasPrefix(line, "# HELP "):
				name, _, _ := strings.Cut(line[len("# HELP "):], " ")
				helped[name] = true
			case strings.HasPrefix(line, "# TYPE "):
				name, kind, _ := strings.Cut(line[len("# TYPE "):], " ")
				if helped[name] {
					introduced[name] = kind
				}
			case line != "":
				sampleLines++
			}
		}
		samples := 0
		for name, fam := range fams {
			if fam.Name != name || introduced[name] != fam.Kind {
				t.Fatalf("family %q (%s, keyed %q) not introduced by # HELP and # TYPE %s %s", fam.Name, fam.Kind, name, name, introduced[name])
			}
			samples += len(fam.Samples)
			for _, s := range fam.Samples {
				if !sampleBelongs(fam, s.Name) {
					t.Fatalf("sample %s in family %s (%s)", s.Name, name, fam.Kind)
				}
				switch {
				case fam.Kind == "counter" && !(s.Value >= 0 && !math.IsInf(s.Value, 1)):
					t.Fatalf("counter %s = %v", name, s.Value)
				case fam.Kind == "gauge" && math.IsNaN(s.Value):
					t.Fatalf("gauge %s = NaN", name)
				}
			}
			if fam.Kind == "histogram" {
				checkHistogram(t, fam)
			}
		}
		if samples != sampleLines {
			t.Fatalf("accepted %d samples from %d sample lines", samples, sampleLines)
		}
	})
}

// checkHistogram fails unless every series of histogram family fam has
// ascending le bounds ending at +Inf, cumulative bucket counts, the +Inf
// bucket equal to its one _count, and one _sum.
func checkHistogram(t *testing.T, fam *ExpoFamily) {
	t.Helper()
	type series struct {
		les, counts []float64
		sums, cnts  []float64
	}
	all := map[string]*series{}
	// A bucket's series is its labels but le; a _sum's or _count's, all of
	// them.
	get := func(labels map[string]string, bucket bool) *series {
		var kv []string
		for k, v := range labels {
			if k != "le" || !bucket {
				kv = append(kv, strconv.Quote(k)+"="+strconv.Quote(v))
			}
		}
		slices.Sort(kv)
		key := strings.Join(kv, ",")
		if all[key] == nil {
			all[key] = &series{}
		}
		return all[key]
	}
	for _, s := range fam.Samples {
		switch strings.TrimPrefix(s.Name, fam.Name) {
		case "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				t.Fatalf("%s: bucket le %q: %v", fam.Name, s.Labels["le"], err)
			}
			sr := get(s.Labels, true)
			sr.les = append(sr.les, le)
			sr.counts = append(sr.counts, s.Value)
		case "_sum":
			sr := get(s.Labels, false)
			sr.sums = append(sr.sums, s.Value)
		case "_count":
			sr := get(s.Labels, false)
			sr.cnts = append(sr.cnts, s.Value)
		}
	}
	for key, sr := range all {
		n := len(sr.les)
		if n == 0 || len(sr.sums) != 1 || len(sr.cnts) != 1 || !math.IsInf(sr.les[n-1], 1) {
			t.Fatalf("%s{%s}: %d buckets ending at le %v, %d _sum, %d _count", fam.Name, key, n, sr.les, len(sr.sums), len(sr.cnts))
		}
		for i := 1; i < n; i++ {
			if !(sr.les[i] > sr.les[i-1]) || !(sr.counts[i] >= sr.counts[i-1]) {
				t.Fatalf("%s{%s}: buckets le %v counts %v are not ascending and cumulative", fam.Name, key, sr.les, sr.counts)
			}
		}
		if sr.counts[n-1] != sr.cnts[0] {
			t.Fatalf("%s{%s}: +Inf bucket %v, _count %v", fam.Name, key, sr.counts[n-1], sr.cnts[0])
		}
	}
}
