package obs

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Gauge("omega_test_gauge", "A gauge.", func() float64 { return -1.5 })
	r.Counter("omega_test_counter", "A counter.", func() float64 { return 12 })
	r.Collect("omega_test_labeled_total", "counter", "counter with labels\nand a newline", func(emit func(v float64, labels ...Label)) {
		emit(3, Label{"site", `sp"ill\x`})
		emit(4, Label{"site", "row"})
	})
	cv := r.CounterVec("omega_test_requests_total", "Requests by code.", "code")
	cv.Inc("200")
	cv.Add("503", 2)
	hv := r.HistogramVec("omega_test_latency_seconds", "Latency.", "backend", LatencyBuckets())
	hv.With("ranked").Observe(0.003)
	hv.With("ranked").Observe(0.2)
	hv.With("bulk").Observe(99) // above every finite bound
	r.CollectHist("omega_test_gap_seconds", "Gap.", func(emit func(h HistSnapshot, labels ...Label)) {
		emit(HistSnapshot{
			Uppers: []float64{0.001, 0.01},
			Counts: []int64{5, 2, 1},
			Sum:    0.5,
		})
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	fams, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("strict parse failed: %v\n%s", err, out)
	}
	if len(fams) != 6 {
		t.Fatalf("families = %d, want 6\n%s", len(fams), out)
	}
	if f := fams["omega_test_gauge"]; f.Kind != "gauge" || f.Samples[0].Value != -1.5 {
		t.Fatalf("gauge: %+v", f)
	}
	lab := fams["omega_test_labeled_total"]
	if lab.Help != "counter with labels\nand a newline" {
		t.Fatalf("help round-trip: %q", lab.Help)
	}
	found := false
	for _, s := range lab.Samples {
		if s.Labels["site"] == `sp"ill\x` && s.Value == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("label escaping round-trip failed: %+v", lab.Samples)
	}
	// HistogramVec: ranked series has 2 observations, bulk has 1 in +Inf.
	hist := fams["omega_test_latency_seconds"]
	var rankedCount, bulkInf float64
	for _, s := range hist.Samples {
		if s.Name == "omega_test_latency_seconds_count" && s.Labels["backend"] == "ranked" {
			rankedCount = s.Value
		}
		if s.Name == "omega_test_latency_seconds_bucket" && s.Labels["backend"] == "bulk" && s.Labels["le"] == "+Inf" {
			bulkInf = s.Value
		}
	}
	if rankedCount != 2 || bulkInf != 1 {
		t.Fatalf("histogram counts: ranked=%v bulkInf=%v", rankedCount, bulkInf)
	}
	gap := fams["omega_test_gap_seconds"]
	for _, s := range gap.Samples {
		if s.Name == "omega_test_gap_seconds_count" && s.Value != 8 {
			t.Fatalf("gap count = %v, want 8", s.Value)
		}
	}
}

func TestHistogramObserveBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(1)   // le="1" bucket (upper bound inclusive)
	h.Observe(1.5) // le="2"
	h.Observe(3)   // +Inf only
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
	if s.Sum != 5.5 {
		t.Fatalf("sum = %v", s.Sum)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %v", s.Count())
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Gauge("ok_metric", "", func() float64 { return 0 })
	mustPanic("dup", func() { r.Gauge("ok_metric", "", func() float64 { return 0 }) })
	mustPanic("bad name", func() { r.Gauge("0bad", "", func() float64 { return 0 }) })
	mustPanic("bad kind", func() { r.Collect("k", "summary", "", nil) })
	mustPanic("le label", func() { r.CounterVec("c_total", "", "le") })
	mustPanic("unsorted buckets", func() { NewHistogram([]float64{2, 1}) })
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []struct{ name, in string }{
		{"sample before header", "foo 1\n"},
		{"type without help", "# TYPE foo counter\nfoo 1\n"},
		{"unknown type", "# HELP foo x\n# TYPE foo summary\n"},
		{"foreign sample", "# HELP foo x\n# TYPE foo counter\nbar 1\n"},
		{"histogram plain sample", "# HELP h x\n# TYPE h histogram\nh 1\n"},
		{"timestamp", "# HELP foo x\n# TYPE foo counter\nfoo 1 12345\n"},
		{"negative counter", "# HELP foo x\n# TYPE foo counter\nfoo -1\n"},
		{"nan gauge", "# HELP foo x\n# TYPE foo gauge\nfoo NaN\n"},
		{"bad value", "# HELP foo x\n# TYPE foo gauge\nfoo abc\n"},
		{"unterminated labels", `# HELP foo x` + "\n" + `# TYPE foo gauge` + "\n" + `foo{a="b" 1` + "\n"},
		{"duplicate label", `# HELP foo x` + "\n" + `# TYPE foo gauge` + "\n" + `foo{a="b",a="c"} 1` + "\n"},
		{"duplicate family", "# HELP foo x\n# TYPE foo gauge\nfoo 1\n# HELP foo x\n# TYPE foo gauge\nfoo 2\n"},
		{"dangling help", "# HELP foo x\n"},
		{"hist no inf", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"hist non-cumulative", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"hist nan bucket", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} NaN\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"},
		{"hist count mismatch", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n"},
		{"hist missing sum", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"hist le not ascending", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, c := range bad {
		if _, err := ParseExposition(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: parser accepted malformed input:\n%s", c.name, c.in)
		}
	}
}

func TestParserAcceptsEdgeCases(t *testing.T) {
	in := "# HELP g A gauge with \\\\ escapes\\n and such.\n" +
		"# TYPE g gauge\n" +
		"g{l=\"a\\\"b\\\\c\\nd\"} +Inf\n" +
		"g{} -Inf\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	g := fams["g"]
	if g.Help != "A gauge with \\ escapes\n and such." {
		t.Fatalf("help unescape: %q", g.Help)
	}
	if g.Samples[0].Labels["l"] != "a\"b\\c\nd" {
		t.Fatalf("label unescape: %q", g.Samples[0].Labels["l"])
	}
	if !math.IsInf(g.Samples[0].Value, 1) || !math.IsInf(g.Samples[1].Value, -1) {
		t.Fatalf("inf values: %+v", g.Samples)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		1:           "1",
		0.0005:      "0.0005",
		2.5:         "2.5",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
