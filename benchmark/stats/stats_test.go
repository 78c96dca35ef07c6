package stats

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{4, 1, 3, 2}, 1},             // rank ceil(4/4) = 1
		{[]float64{5, 1, 4, 2, 3}, 2},          // rank ceil(5/4) = 2
		{[]float64{8, 7, 6, 5, 4, 3, 2, 1}, 2}, // rank 2
		{[]float64{10, 10, 10, 50, 90, 90}, 10},
	} {
		if got := LowerQuartile(c.xs); got != c.want {
			t.Errorf("LowerQuartile(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	LowerQuartile(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("LowerQuartile reordered its input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd count: got %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}

// A slow stretch that covers under three quarters of a run must not move the
// figure: that is why the ledger reads the lower quartile.
func TestLowerQuartileIgnoresOneSidedNoise(t *testing.T) {
	quiet := []float64{100, 101, 99, 100, 102, 98, 100, 101}
	noisy := append([]float64{140, 150, 135, 160}, quiet...) // a third of the run 40% slower
	if q, n := LowerQuartile(quiet), LowerQuartile(noisy); math.Abs(n-q)/q > 0.02 {
		t.Errorf("lower quartile moved from %v to %v under one-sided noise", q, n)
	}
}

func TestGeoMeanOfClassQuartiles(t *testing.T) {
	// Quartiles 1, 10 and 100: geometric mean 10, however many samples each
	// class has and however slow its other samples are.
	classes := map[string][]float64{
		"light":  {1, 1, 1, 1, 1, 1, 1, 900},
		"middle": {10},
		"heavy":  {100, 100, 100},
	}
	if got := GeoMeanOfClassQuartiles(classes); !near(got, 10) {
		t.Errorf("got %v, want 10", got)
	}
	// Equal weight per class: doubling the light class moves the aggregate as
	// much as doubling the heavy one.
	light := map[string][]float64{"light": {2}, "middle": {10}, "heavy": {100}}
	heavy := map[string][]float64{"light": {1}, "middle": {10}, "heavy": {200}}
	if a, b := GeoMeanOfClassQuartiles(light), GeoMeanOfClassQuartiles(heavy); !near(a, b) {
		t.Errorf("light-class and heavy-class regressions weigh %v and %v, want equal", a, b)
	}
	// Empty and non-positive classes are skipped, not multiplied in.
	classes["empty"] = nil
	classes["zero"] = []float64{0}
	if got := GeoMeanOfClassQuartiles(classes); !near(got, 10) {
		t.Errorf("with empty classes: got %v, want 10", got)
	}
	if got := GeoMeanOfClassQuartiles(nil); got != 0 {
		t.Errorf("no classes: got %v, want 0", got)
	}
}

func TestDueLatency(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(40 * time.Millisecond) // the generator was late
	done := sent.Add(5 * time.Millisecond)
	if got := DueLatency(due, done); got != 45*time.Millisecond {
		t.Errorf("latency from due time = %v, want 45ms (the 40ms the request waited count)", got)
	}
}

func TestPerBlockRate(t *testing.T) {
	walls := []time.Duration{
		2 * time.Second, 2 * time.Second, 4 * time.Second, 2 * time.Second,
		3 * time.Second, 3 * time.Second, 9 * time.Second, 9 * time.Second,
	}
	// The third block holds two rotations: 12 requests in 4 s is the same
	// 1/3 s per request as 6 in 2 s. Lower-quartile time per request 1/3 s.
	work := []float64{6, 6, 12, 6, 6, 6, 6, 6}
	if got := PerBlockRate(work, walls); !near(got, 3) {
		t.Errorf("got %v req/s, want 3", got)
	}
	if got := PerBlockRate(nil, nil); got != 0 {
		t.Errorf("no blocks: got %v, want 0", got)
	}
	if got := PerBlockRate([]float64{0}, []time.Duration{time.Second}); got != 0 {
		t.Errorf("a block without work: got %v, want 0", got)
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so Tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		want       float64 // percentile asked for
		used       float64
		value      float64
		sampleNote string
	}{
		{2000, 99, 99, 1980, "p99 of 2000 has 20 beyond"},
		{1000, 99, 99, 990, "p99 of 1000 has exactly 10 beyond"},
		{999, 99, 95, 950, "p99 of 999 has 9.99 beyond: falls to p95"},
		{600, 99, 95, 570, "p99 of 600 has 6 beyond: falls to p95"},
		{600, 95, 95, 570, "p95 of 600 has 30 beyond"},
		{100, 99, 90, 90, "p95 of 100 has 5 beyond: falls to p90"},
		{30, 99, 50, 15, "only the median has ten beyond it"},
		{19, 99, 0, 10, "under 20 samples: no tail, the median"},
	} {
		v, used, n := Tail(seq(c.n), c.want)
		if n != c.n || used != c.used || v != c.value {
			t.Errorf("%s: Tail(1..%d, p%g) = (%v, p%g, %d), want (%v, p%g, %d)",
				c.sampleNote, c.n, c.want, v, used, n, c.value, c.used, c.n)
		}
	}
	if v, used, n := Tail(nil, 99); v != 0 || used != 0 || n != 0 {
		t.Errorf("empty: got (%v, %v, %d)", v, used, n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "request", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "parse", Parent: 0, StartNs: 0, EndNs: 10},
		{Name: "prepare", Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "build", Parent: 2, StartNs: 15, EndNs: 35},
		{Name: "exec", Parent: 0, StartNs: 40, EndNs: 90},
		// Two overlapping children of exec: covered once, not twice.
		{Name: "conjunct", Parent: 4, StartNs: 45, EndNs: 80},
		{Name: "conjunct", Parent: 4, StartNs: 50, EndNs: 85},
		// A child that overruns its parent is clipped to it.
		{Name: "close", Parent: 0, StartNs: 95, EndNs: 120},
	}
	want := []int64{
		100 - (10 + 30 + 50 + 5), // request: what no child covers
		10,
		30 - 20,
		20,
		50 - 40, // exec minus the union [45, 85]
		35,
		35,
		25,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}
