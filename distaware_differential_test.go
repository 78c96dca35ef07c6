package omega

import (
	"testing"

	"omega/internal/l4all"
)

// TestL4AllCorpusDistanceAwareDifferential runs the full L4All study corpus
// under the distance-aware mode with the resumable incremental driver and
// with the retained per-phase restart reference, and requires byte-identical
// ranked answer sequences: same rows, same distances, same order. This is
// the corpus-level guarantee that resuming a warm evaluator across ψ phases
// changes the work performed, never the emission.
func TestL4AllCorpusDistanceAwareDifferential(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	for _, q := range l4all.Queries() {
		for _, mode := range []Mode{Approx, Relax, Flex} {
			inc := collectAnswers(t, g, ont, q.Text, mode, Options{DistanceAware: true}, ExecOptions{}, 500)
			res := collectAnswers(t, g, ont, q.Text, mode, Options{DistanceAware: true, DistanceRestart: true}, ExecOptions{}, 500)
			if len(inc) != len(res) {
				t.Fatalf("%s/%v: incremental emitted %d answers, restart reference %d",
					q.ID, mode, len(inc), len(res))
			}
			for i := range inc {
				if !sameRow(inc[i], res[i]) {
					t.Fatalf("%s/%v answer %d differs:\n incremental: %+v\n restart:     %+v",
						q.ID, mode, i, inc[i], res[i])
				}
			}
		}
	}
}

// TestL4AllCorpusDistanceAwareTighterPsi repeats the differential with a
// non-default ψ cap and non-unit costs, so multi-φ grid stepping and the
// truncation boundary are exercised on real workloads too.
func TestL4AllCorpusDistanceAwareTighterPsi(t *testing.T) {
	g, ont := datasets().L4All(l4all.L1)
	opts := Options{
		DistanceAware: true,
		MaxPsi:        4,
		Edit:          EditCosts{Insert: 2, Delete: 3, Substitute: 2},
		Relax:         RelaxCosts{Beta: 2, Gamma: 5},
	}
	ropts := opts
	ropts.DistanceRestart = true
	for _, q := range l4all.Queries() {
		for _, mode := range []Mode{Approx, Relax} {
			inc := collectAnswers(t, g, ont, q.Text, mode, opts, ExecOptions{}, 500)
			res := collectAnswers(t, g, ont, q.Text, mode, ropts, ExecOptions{}, 500)
			if len(inc) != len(res) {
				t.Fatalf("%s/%v: incremental emitted %d answers, restart reference %d",
					q.ID, mode, len(inc), len(res))
			}
			for i := range inc {
				if !sameRow(inc[i], res[i]) {
					t.Fatalf("%s/%v answer %d differs:\n incremental: %+v\n restart:     %+v",
						q.ID, mode, i, inc[i], res[i])
				}
			}
		}
	}
}
