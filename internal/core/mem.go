package core

import "sync/atomic"

// MemGauge aggregates the accounted resident bytes of every evaluator in one
// execution and carries the execution's hard memory watermark. Evaluators
// sample their dstruct footprints every memSampleEvery tuple operations and
// push the delta here; a multi-conjunct execution's evaluators all share the
// one gauge, so the watermark bounds the whole execution, not each conjunct
// separately.
//
// The gauge is written from the execution's goroutine but read concurrently
// by the serving layer's memory broker (victim selection scans the live bytes
// of every in-flight request), hence the atomics.
type MemGauge struct {
	hard int64 // hard watermark; 0 = none

	live atomic.Int64
	peak atomic.Int64
}

// NewMemGauge returns a gauge with the given hard watermark (0 disables it).
// Crossing it aborts the execution with ErrMemBudget.
func NewMemGauge(hard int64) *MemGauge {
	return &MemGauge{hard: hard}
}

// add applies a delta to the live figure and maintains the peak.
func (m *MemGauge) add(delta int64) int64 {
	v := m.live.Add(delta)
	for {
		p := m.peak.Load()
		if v <= p || m.peak.CompareAndSwap(p, v) {
			break
		}
	}
	return v
}

// LiveBytes returns the currently accounted resident bytes.
func (m *MemGauge) LiveBytes() int64 { return m.live.Load() }

// PeakBytes returns the high-water mark of accounted resident bytes.
func (m *MemGauge) PeakBytes() int64 { return m.peak.Load() }

// HardBytes returns the hard watermark (0 = none).
func (m *MemGauge) HardBytes() int64 { return m.hard }
