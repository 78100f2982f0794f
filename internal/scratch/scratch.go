// Package scratch provides sync.Pool-backed scratch slices for the hot
// paths: the sharded E-step's per-chunk candidate buffers, the intensity
// engine's per-call state and output vectors, the optimizer's gradient and
// trial vectors, the M-step objective's per-dimension state, and the
// Monte-Carlo predictors' per-draw counters. These
// loops run thousands of times per fit (and per served request), each
// needing short-lived float64/int slices of recurring sizes; recycling them
// keeps the allocator and GC out of the steady state.
//
// Pooling is invisible to results: a pooled slice is re-zeroed (for n > 0)
// before reuse, so a caller sees exactly what a fresh make() would give it.
// Callers that return early may simply not Put — the pool is an
// optimization, never an obligation — but must not Put a slice they have
// handed out to anyone else.
package scratch

import "sync"

// Pool is a typed free list of slices. The zero value is ready to use and
// safe for concurrent Get/Put.
//
// A sync.Pool holds pointers, so each pooled slice sits in a box, a *[]T.
// Get hands the box it emptied to a second pool, from which Put takes the
// box for the next slice, so a Get/Put round trip allocates nothing once
// the pools are warm.
type Pool[T any] struct {
	p     sync.Pool // boxes holding a slice
	boxes sync.Pool // empty boxes
}

// Get returns a slice of length n, zeroed. When a pooled buffer with enough
// capacity is available it is recycled, otherwise a new one is allocated.
// Get(0) returns an empty slice with whatever capacity the pool had handy —
// the shape append-style callers want.
func (sp *Pool[T]) Get(n int) []T {
	if v := sp.p.Get(); v != nil {
		box := v.(*[]T)
		s := *box
		*box = nil // an empty box must not keep the slice alive
		sp.boxes.Put(box)
		if cap(s) >= n {
			s = s[:n]
			var zero T
			for i := range s {
				s[i] = zero
			}
			return s
		}
	}
	return make([]T, n)
}

// Put recycles s for a future Get. The caller must not use s afterwards.
// Nil or zero-capacity slices are dropped.
func (sp *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	box, _ := sp.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	sp.p.Put(box)
}

var (
	floats Pool[float64]
	ints   Pool[int]
)

// Floats returns a zeroed []float64 of length n from the shared pool.
func Floats(n int) []float64 { return floats.Get(n) }

// PutFloats recycles a slice obtained from Floats.
func PutFloats(s []float64) { floats.Put(s) }

// Ints returns a zeroed []int of length n from the shared pool.
func Ints(n int) []int { return ints.Get(n) }

// PutInts recycles a slice obtained from Ints.
func PutInts(s []int) { ints.Put(s) }
