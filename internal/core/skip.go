package core

import "repro/internal/protocol"

// This file implements the event-skip contract (protocol.SkipController)
// for One-Fail Adaptive, so the kernel in internal/kernel can sample the
// slot of the next successful delivery directly instead of resolving every
// slot.
//
// Between successes, OFA's probability sequence has exactly the two-class
// periodic structure the contract describes (period 2):
//
//   - BT-steps (even slots) use 1/(1 + log₂(σ+1)), which depends only on
//     σ and is therefore constant until the next success — the special
//     class.
//   - AT-steps (odd slots) use 1/κ̃, and κ̃ grows by 1 on every observed
//     AT-step whether or not anything was heard (Task 1 of Algorithm 1) —
//     the regular class, varying but monotone, so a phase spanning g
//     AT-steps has probabilities boxed in [1/(κ̃+g), 1/κ̃].
//
// The phase horizon caps κ̃'s within-phase growth at ~1/8 of its current
// value, keeping the thinning envelope (the dominating constant the kernel
// rejects against) within ~6% of the true success probability, so almost
// every candidate drawn is accepted. Shorter phases would waste phase
// setups; longer ones would waste rejected candidates during the initial
// κ̃-climb, where the estimator must grow from δ+1 to ≈k before any
// delivery is likely.

// countOdd returns the number of odd integers in [a, b).
func countOdd(a, b uint64) uint64 {
	if b <= a {
		return 0
	}
	return (b - a + (a & 1)) / 2
}

// btProb returns the BT-step transmission probability for the current σ
// (cached; recomputed by Observe on each reception).
func (o *OneFailAdaptive) btProb() float64 {
	return o.btp
}

// SkipPhase implements protocol.SkipController.
func (o *OneFailAdaptive) SkipPhase(slot uint64, ph *protocol.SkipPhase) {
	span := uint64(o.kappa) / 8
	if span < 64 {
		span = 64
	}
	end := slot + span - 1
	// Prob at a regular slot s reflects the AT-step increments of
	// [cursor, s) only, so the last regular slot of the phase sees at
	// most countOdd(slot, end) increments beyond the current κ̃.
	kappaEnd := o.kappa + float64(countOdd(slot, end))
	ph.End = end
	ph.Period = 2
	ph.SpecialResidue = 0 // even slots are BT-steps
	ph.SpecialProb = o.btProb()
	ph.RegularLo = 1 / kappaEnd
	ph.RegularHi = 1 / o.kappa
}

// ProbQuiet implements protocol.SkipController: the probability at slot s
// assuming every slot in [cursor, s) resolves without a success.
func (o *OneFailAdaptive) ProbQuiet(s uint64) float64 {
	if s%2 == 0 {
		return o.btProb()
	}
	return 1 / (o.kappa + float64(countOdd(o.cursor, s)))
}

// SkipTo implements protocol.SkipController: observing a failure changes
// state only on AT-steps (κ̃++), so skipping is one counting step.
func (o *OneFailAdaptive) SkipTo(s uint64) {
	if s > o.cursor {
		o.kappa += float64(countOdd(o.cursor, s))
		o.cursor = s
	}
}

var _ protocol.SkipController = (*OneFailAdaptive)(nil)
