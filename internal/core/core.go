// Package core implements the two contention-resolution protocols
// contributed by the paper:
//
//   - One-Fail Adaptive (Algorithm 1): a fair probability-based protocol
//     that interleaves an AT algorithm (transmission probability 1/κ̃,
//     where κ̃ is a continuously updated density estimator) with a BT
//     algorithm (probability inversely logarithmic in the number of
//     delivered messages). It solves static k-selection in
//     2(δ+1)k + O(log²k) slots with probability at least 1 − 2/(1+k)
//     (Theorem 1), for e < δ ≤ Σ_{j=1..5}(5/6)^j.
//
//   - Exp Back-on/Back-off (Algorithm 2): a windowed sawtooth protocol —
//     windows double in an outer loop (back-on) and shrink geometrically
//     by (1−δ) in an inner loop (back-off). It solves static k-selection
//     in 4(1+1/δ)k slots w.h.p. (Theorem 2), for 0 < δ < 1/e.
//
// Neither protocol needs any knowledge of the number of contenders k nor
// of the network size n — the "unbounded" setting of the paper's title.
package core

import (
	"fmt"
	"math"

	"repro/internal/protocol"
)

// Parameter bounds from the paper.
const (
	// OFADeltaMin is the exclusive lower bound e for One-Fail Adaptive's δ.
	OFADeltaMin = math.E
	// OFADeltaMax is the inclusive upper bound Σ_{j=1..5}(5/6)^j = 23255/7776
	// for One-Fail Adaptive's δ (Theorem 1).
	OFADeltaMax = 23255.0 / 7776.0
	// EBBDeltaMax is the exclusive upper bound 1/e for Exp
	// Back-on/Back-off's δ (Theorem 2).
	EBBDeltaMax = 1 / math.E

	// DefaultOFADelta is the value simulated in the paper's evaluation (§5).
	DefaultOFADelta = 2.72
	// DefaultEBBDelta is the value simulated in the paper's evaluation (§5).
	DefaultEBBDelta = 0.366
)

// OneFailAdaptive is the shared state of Algorithm 1 for one execution.
// It implements protocol.Controller. The zero value is not usable; create
// instances with NewOneFailAdaptive.
//
// Slot parity follows the paper's pseudocode: slots are numbered from 1,
// even slots are BT-steps and odd slots are AT-steps.
type OneFailAdaptive struct {
	delta  float64
	kappa  float64 // κ̃, the density estimator
	sigma  uint64  // σ, messages received so far
	cursor uint64  // next unobserved slot (event-skip contract; see skip.go)
	btp    float64 // cached BT-step probability 1/(1+log₂(σ+1))
}

// NewOneFailAdaptive returns a controller for Algorithm 1 with parameter
// δ = delta. It returns an error unless e < δ ≤ Σ_{j=1..5}(5/6)^j, the
// range required by Theorem 1.
func NewOneFailAdaptive(delta float64) (*OneFailAdaptive, error) {
	if !(delta > OFADeltaMin && delta <= OFADeltaMax) {
		return nil, fmt.Errorf("core: One-Fail Adaptive requires e < δ ≤ %.4f, got %v", OFADeltaMax, delta)
	}
	return &OneFailAdaptive{delta: delta, kappa: delta + 1, cursor: 1, btp: 1}, nil
}

// Delta returns the protocol parameter δ.
func (o *OneFailAdaptive) Delta() float64 { return o.delta }

// DensityEstimate returns the current value of the density estimator κ̃.
func (o *OneFailAdaptive) DensityEstimate() float64 { return o.kappa }

// Received returns σ, the number of messages received so far.
func (o *OneFailAdaptive) Received() uint64 { return o.sigma }

// Prob implements protocol.Controller; it is lines 6–10 of Algorithm 1.
func (o *OneFailAdaptive) Prob(slot uint64) float64 {
	if slot%2 == 0 {
		// BT-step: transmit with probability 1/(1 + log₂(σ+1)).
		return o.btp
	}
	// AT-step: transmit with probability 1/κ̃.
	return 1 / o.kappa
}

// Observe implements protocol.Controller; it is line 11 (Task 1) and
// Task 2 of Algorithm 1. The AT-step increment of κ̃ applies before the
// reception decrement, and the floor δ+1 applies last — consistent with
// the analysis' bookkeeping κ̃_{r,t} = κ̃_{r,1} − δσ + t − σ (Lemma 4).
func (o *OneFailAdaptive) Observe(slot uint64, success bool) {
	o.cursor = slot + 1
	atStep := slot%2 == 1
	if atStep {
		o.kappa++
	}
	if !success {
		return
	}
	o.sigma++
	o.btp = btProbOf(o.sigma)
	dec := o.delta
	if atStep {
		dec = o.delta + 1
	}
	o.kappa = max(o.kappa-dec, o.delta+1)
}

// RoundingMode selects how Exp Back-on/Back-off materializes its
// real-valued window length w into an integer number of slots. The
// paper's analysis telescopes real-valued windows, so this is an
// implementation choice; see BenchmarkAblationEBBRounding.
type RoundingMode uint8

// Rounding modes for window materialization.
const (
	// RoundCeil uses ⌈w⌉ slots (default: never shrinks a window below its
	// analytical size).
	RoundCeil RoundingMode = iota
	// RoundFloor uses ⌊w⌋ slots.
	RoundFloor
	// RoundNearest uses ⌊w+0.5⌋ slots.
	RoundNearest
)

// String implements fmt.Stringer.
func (m RoundingMode) String() string {
	switch m {
	case RoundCeil:
		return "ceil"
	case RoundFloor:
		return "floor"
	case RoundNearest:
		return "nearest"
	default:
		return fmt.Sprintf("RoundingMode(%d)", uint8(m))
	}
}

// ExpBackonBackoff is the window schedule of Algorithm 2 for one
// execution. It implements protocol.Schedule. Create instances with
// NewExpBackonBackoff.
type ExpBackonBackoff struct {
	delta    float64
	rounding RoundingMode
	i        int     // outer-loop exponent; window sequence starts at 2^1
	w        float64 // current real-valued window; < 1 forces a new phase
}

// EBBOption configures NewExpBackonBackoff.
type EBBOption func(*ExpBackonBackoff)

// WithEBBRounding selects the window rounding mode (default RoundCeil).
func WithEBBRounding(m RoundingMode) EBBOption {
	return func(e *ExpBackonBackoff) { e.rounding = m }
}

// NewExpBackonBackoff returns the window schedule of Algorithm 2 with
// parameter δ = delta. It returns an error unless 0 < δ < 1/e, the range
// required by Theorem 2.
func NewExpBackonBackoff(delta float64, opts ...EBBOption) (*ExpBackonBackoff, error) {
	if !(delta > 0 && delta < EBBDeltaMax) {
		return nil, fmt.Errorf("core: Exp Back-on/Back-off requires 0 < δ < 1/e ≈ %.4f, got %v", EBBDeltaMax, delta)
	}
	e := &ExpBackonBackoff{delta: delta}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Delta returns the protocol parameter δ.
func (e *ExpBackonBackoff) Delta() float64 { return e.delta }

// Phase returns the current outer-loop index i (the phase whose windows
// started at 2^i slots); 0 before the first window.
func (e *ExpBackonBackoff) Phase() int { return e.i }

// NextWindow implements protocol.Schedule; it is Algorithm 2 verbatim:
// the outer loop sets w ← 2^i, the inner loop emits windows while w ≥ 1,
// shrinking w ← w(1−δ) after each.
func (e *ExpBackonBackoff) NextWindow() int {
	if e.w < 1 {
		e.i++
		e.w = math.Exp2(float64(e.i))
	}
	w := e.w
	e.w *= 1 - e.delta
	switch e.rounding {
	case RoundFloor:
		return int(math.Floor(w))
	case RoundNearest:
		return int(math.Floor(w + 0.5))
	default:
		return int(math.Ceil(w))
	}
}

// Compile-time interface conformance checks.
var (
	_ protocol.Controller = (*OneFailAdaptive)(nil)
	_ protocol.Schedule   = (*ExpBackonBackoff)(nil)
)
