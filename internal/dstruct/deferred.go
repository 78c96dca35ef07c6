package dstruct

import "math"

// Deferred parks tuples until Drain admits them by distance: a thin wrapper
// over a Dict whose ceiling admits nothing until Drain raises it. The
// evaluator does not use it — it parks over-ψ entries in D_R itself (see
// Dict.SetCeiling) — and it exists only because benchmark/layers times
// it; ROADMAP item 8d drops that timing and then this type.
type Deferred struct {
	dict Dict
}

// NewDeferred returns an empty frontier. The argument is ignored (see
// Dict.Reset).
func NewDeferred(_ bool) *Deferred {
	df := &Deferred{}
	df.Reset(false)
	return df
}

// Add parks t.
func (df *Deferred) Add(t Tuple) { df.dict.Add(t) }

// Drain raises the ceiling to psi and hands every parked tuple it admits to
// emit, in D_R pop order.
func (df *Deferred) Drain(psi int32, emit func(Tuple)) {
	df.dict.SetCeiling(psi)
	for {
		t, ok := df.dict.Remove()
		if !ok {
			return
		}
		emit(t)
	}
}

// Reset empties the frontier, retaining its capacity. The argument is
// ignored (see Dict.Reset).
func (df *Deferred) Reset(_ bool) {
	df.dict.Reset(false)
	df.dict.SetCeiling(math.MinInt32)
}

// Close is a no-op: the frontier holds nothing but memory.
func (df *Deferred) Close() error { return nil }
