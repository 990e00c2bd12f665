package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// One-Fail Adaptive's BT-step probability 1/(1 + log₂(σ+1)) changes on
// every delivery, and math.Log2 is most of Observe's cost. The values
// depend on σ alone, so every controller reads them from one shared,
// read-only table. Each entry is computed with the same expression
// Observe used to evaluate inline, so a lookup is bit-identical to it.
//
// The table is built on first use and grows by doubling up to the
// largest σ seen, so a process that only runs small k holds a small
// table. Readers never lock: a grown table is published through an
// atomic pointer, and readers that loaded an older one keep a valid,
// shorter prefix of the same values. Past btTableMax entries Observe
// calls math.Log2 as before.

// btTableMax caps the shared table at 2²⁰ entries (8 MiB).
const btTableMax = 1 << 20

// btTableMin is the size of the table's first allocation.
const btTableMin = 64

var (
	btTable  atomic.Pointer[[]float64]
	btGrowMu sync.Mutex // serializes growth; readers do not take it
)

// btProbExact returns the BT-step probability for σ deliveries.
func btProbExact(sigma uint64) float64 {
	return 1 / (1 + math.Log2(float64(sigma)+1))
}

// btProbOf returns btProbExact(sigma), from the shared table when σ is
// below the cap.
func btProbOf(sigma uint64) float64 {
	if t := btTable.Load(); t != nil && sigma < uint64(len(*t)) {
		return (*t)[sigma]
	}
	return btProbGrow(sigma)
}

// btProbGrow is btProbOf's slow path: it grows the shared table to hold
// sigma, or computes the value directly past the cap.
func btProbGrow(sigma uint64) float64 {
	if sigma >= btTableMax {
		return btProbExact(sigma)
	}
	btGrowMu.Lock()
	defer btGrowMu.Unlock()
	var old []float64
	if t := btTable.Load(); t != nil {
		old = *t
	}
	if sigma < uint64(len(old)) {
		return old[sigma] // another goroutine grew it first
	}
	n := max(2*len(old), btTableMin)
	for uint64(n) <= sigma {
		n *= 2
	}
	t := make([]float64, n)
	copy(t, old)
	for i := len(old); i < n; i++ {
		t[i] = btProbExact(uint64(i))
	}
	btTable.Store(&t)
	return t[sigma]
}
