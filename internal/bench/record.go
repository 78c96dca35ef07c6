package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Record is one machine-readable measurement row, written by omega-bench's
// -json flag so the performance trajectory is comparable across revisions.
type Record struct {
	Experiment   string  `json:"experiment"`
	Dataset      string  `json:"dataset"`
	Query        string  `json:"query"`
	Mode         string  `json:"mode"`
	Ms           float64 `json:"ms"`      // average total time (0 when failed)
	InitMs       float64 `json:"init_ms"` // average initialisation time
	Answers      int     `json:"answers"`
	TuplesAdded  int     `json:"tuples_added"`
	TuplesPopped int     `json:"tuples_popped"`
	Phases       int     `json:"phases"`     // distance-aware ψ phases (1 otherwise)
	Reinjected   int     `json:"reinjected"` // deferred tuples re-admitted (incremental distance-aware)
	Failed       bool    `json:"failed"`     // tuple budget exhausted ('?')
	// Backend names the evaluation engine that ran ("ranked" or "bulk").
	Backend string `json:"backend,omitempty"`
}

// Recorder accumulates Records across experiments. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	records []Record
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add appends one record.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records = append(r.records, rec)
}

// WriteExperiment writes the records of one experiment to path as an
// indented JSON array.
func (r *Recorder) WriteExperiment(path, experiment string) error {
	if r == nil {
		return fmt.Errorf("bench: WriteExperiment on nil Recorder")
	}
	r.mu.Lock()
	out := []Record{} // marshal an empty array, never null, for record-less experiments
	for _, rec := range r.records {
		if rec.Experiment == experiment {
			out = append(out, rec)
		}
	}
	r.mu.Unlock()
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: WriteExperiment: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: WriteExperiment: %w", err)
	}
	return nil
}

// record registers m under the Config's current experiment, when a Recorder
// is attached.
func (c Config) record(m Measurement) {
	if c.Recorder == nil {
		return
	}
	msVal := 0.0
	if !m.Failed {
		msVal = float64(m.Total.Nanoseconds()) / 1e6
	}
	c.Recorder.Add(Record{
		Experiment:   c.Experiment,
		Dataset:      m.Dataset,
		Query:        m.ID,
		Mode:         modeName(m.Mode),
		Ms:           msVal,
		InitMs:       float64(m.Init.Nanoseconds()) / 1e6,
		Answers:      m.Answers,
		TuplesAdded:  m.TuplesAdded,
		TuplesPopped: m.TuplesPopped,
		Phases:       m.Phases,
		Reinjected:   m.Reinjected,
		Failed:       m.Failed,
		Backend:      m.Backend,
	})
}
