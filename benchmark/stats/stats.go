// Package stats holds the ledger's arithmetic: the aggregation rules behind
// every reported figure, kept apart from the harness so each rule is unit
// tested on its own.
package stats

import (
	"math"
	"sort"
	"time"
)

// Median returns the middle value of xs (mean of the two middle values for an
// even count) and 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// LowerQuartile returns the first quartile of xs by nearest rank: the
// smallest value with at least a quarter of the samples at or below it (0 for
// an empty slice). xs is not modified.
//
// It is the ledger's estimator for every timing. The noise of a shared
// machine is one-sided — a neighbour, a frequency drop or a collection cycle
// only ever slow a sample down — and arrives in stretches that last seconds.
// A median follows such a stretch once it covers half the samples; the lower
// quartile holds until it covers three quarters, so two runs of the same code
// agree on it more closely.
func LowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+3)/4-1]
}

// GeoMeanOfClassQuartiles is the latency aggregate of the ledger: the
// geometric mean, over request classes, of each class's lower-quartile
// sample. Every class weighs the same however many samples it has or however
// long it runs, so a regression on a light query shows even when a heavy one
// owns the wall clock. Classes without samples and non-positive quartiles are
// skipped.
func GeoMeanOfClassQuartiles(classes map[string][]float64) float64 {
	var sum float64
	var n int
	for _, xs := range classes {
		q := LowerQuartile(xs)
		if q <= 0 {
			continue
		}
		sum += math.Log(q)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// DueLatency is the open-loop latency rule: a request is timed from when it
// was due to be sent, not from when the generator got round to sending it, so
// the wait a stall imposes on later requests is counted.
func DueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// PerBlockRate is the closed-loop throughput rule: each block's wall time is
// divided by the work it did (blocks of one run may hold different numbers of
// rotations), and the rate is the inverse of the lower-quartile time per unit
// of work.
func PerBlockRate(work []float64, walls []time.Duration) float64 {
	var per []float64
	for i, d := range walls {
		if work[i] > 0 {
			per = append(per, d.Seconds()/work[i])
		}
	}
	q := LowerQuartile(per)
	if q <= 0 {
		return 0
	}
	return 1 / q
}

// percentiles a tail may be reported at, ascending.
var percentiles = []float64{50, 75, 90, 95, 99, 99.9}

// Tail reports the want-th percentile of xs, lowered to the highest
// percentile that still has at least ten samples beyond it: a p99 of 600
// samples rests on six values and is reported as the p95 instead. It returns
// the value, the percentile actually used and the sample count; used is 0
// when even the median lacks ten samples beyond it (n < 20), and then value
// is the median.
func Tail(xs []float64, want float64) (value, used float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	for _, p := range percentiles {
		if p > want {
			break
		}
		if float64(n)*(100-p)/100 >= 10 {
			used = p
		}
	}
	if used == 0 {
		return Median(xs), 0, n
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest-rank: the smallest value with at least used% of samples at or
	// below it.
	rank := int(math.Ceil(used / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], used, n
}

// Span is one traced interval. Parent indexes the span that caused it in the
// same slice (-1 for a request's root); Req groups the spans of one request.
type Span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndNs - s.StartNs) - covered
	}
	return self
}
