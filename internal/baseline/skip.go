package baseline

import "repro/internal/protocol"

// This file implements the event-skip contract (protocol.SkipController)
// for Log-Fails Adaptive. LFA is the ideal case for event-skip: between
// successes its density estimator κ̃ is frozen (growth merely accrues in
// the pending counter, which Prob never reads), so over a quiet stretch
// BOTH slot classes are exactly constant —
//
//   - BT-steps (slot ≡ 0 mod round(1/ξt)): the fixed btProb — the
//     special class;
//   - AT-steps: 1/κ̃ with κ̃ untouched — a constant regular class
//     (RegularLo == RegularHi, so the kernel's geometric draws are exact
//     and no thinning is needed).
//
// The only spontaneous state change is the patience flush after F
// consecutive silent slots, which bumps κ̃; a phase therefore ends exactly
// at the flush slot, and SkipTo replays the flush arithmetic in O(1) per
// flush instead of O(F) per-slot bookkeeping. With F = Θ(log(1/ε)) in the
// thousands, the long silent climbs that dominate LFA's executions
// collapse to a couple of geometric draws per flush period.

// countBT returns the number of BT-steps (slots ≡ 0 mod btEvery) in [a, b).
func (l *LogFailsAdaptive) countBT(a, b uint64) uint64 {
	if b <= a {
		return 0
	}
	return (b-1)/l.btEvery - (a-1)/l.btEvery
}

// SkipPhase implements protocol.SkipController.
func (l *LogFailsAdaptive) SkipPhase(slot uint64, ph *protocol.SkipPhase) {
	// The probabilities hold until the patience flush fires, which happens
	// while observing the (patience − fails)-th quiet slot from here.
	ph.End = slot + (l.patience - l.fails) - 1
	ph.Period = l.btEvery
	ph.SpecialResidue = 0
	ph.SpecialProb = l.btProb
	at := 1 / l.kappa
	if l.btEvery == 1 {
		// Every slot is a BT-step: a single constant class, which the
		// contract represents as Period 1 with regular bounds.
		at = l.btProb
	}
	ph.RegularLo = at
	ph.RegularHi = at
}

// ProbQuiet implements protocol.SkipController. Nothing Prob reads changes
// during a quiet stretch short of the flush, so it coincides with Prob.
func (l *LogFailsAdaptive) ProbQuiet(s uint64) float64 {
	return l.Prob(s)
}

// SkipTo implements protocol.SkipController: it replays Observe(x, false)
// for every x in [cursor, s) in O(1) per intervening patience flush.
func (l *LogFailsAdaptive) SkipTo(s uint64) {
	for l.cursor < s {
		n := s - l.cursor
		if toFlush := l.patience - l.fails; n > toFlush {
			n = toFlush
		}
		// Per-slot order: pending accrues on the flush slot itself before
		// the flush applies, so count the chunk's AT-steps first.
		l.pending += float64(n - l.countBT(l.cursor, l.cursor+n))
		l.fails += n
		l.cursor += n
		if l.fails >= l.patience {
			l.flush()
		}
	}
}

var _ protocol.SkipController = (*LogFailsAdaptive)(nil)
