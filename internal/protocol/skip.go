package protocol

import "repro/internal/rng"

// This file defines the event-skip contract: the declarations that let a
// protocol promise "my transmission probability is constant (or boundedly
// varying) until my state changes", so that the kernel in internal/kernel
// can jump straight to the next interesting slot with one geometric draw
// instead of flipping a Bernoulli coin per slot.
//
// Two such contracts exist, one per protocol family:
//
//   - SkipController extends Controller for fair protocols. The controller
//     describes the channel's immediate future as a SkipPhase — a stretch
//     of slots over which, as long as no success occurs, the probability
//     sequence is periodic with one constant "special" class and one
//     boundedly-varying "regular" class. The kernel samples the next
//     success directly: exactly for the constant class, by thinning
//     (rejection against a dominating constant) for the varying class.
//
//   - AttemptStation extends Station for windowed protocols, whose
//     stations are channel-oblivious: the station exposes the slot of its
//     next transmission attempt so a calendar queue can jump from occupied
//     slot to occupied slot.
//
// Not every protocol can declare skip-safe phases. The tree-splitting
// protocols in internal/cd contend in every slot and mutate their group
// stack on every ternary outcome, so they have no quiet stretches to skip
// and intentionally implement neither interface; the per-slot simulator
// remains their only driver (see internal/cd's package comment).

// SkipPhase describes a fair controller's transmission probabilities over
// the slots [start, End] under the assumption that none of those slots
// carries a success, where start is the slot passed to SkipPhase. Slots
// fall into two classes by residue mod Period:
//
//   - special: slot % Period == SpecialResidue (only when Period ≥ 2).
//     The probability on every special slot of the phase is exactly
//     SpecialProb, a constant.
//   - regular: every other slot. The probability on a regular slot s is
//     ProbQuiet(s) ∈ [RegularLo, RegularHi]. RegularLo == RegularHi
//     promises the regular class is constant too.
//
// When Period ≤ 1 there is no special class: every slot is regular.
//
// The phase ends at End (inclusive) because observing slot End without a
// success changes controller state in a way the bounds no longer cover
// (e.g. Log-Fails Adaptive's patience flush); a success anywhere in the
// phase ends it early. Either way the kernel re-requests a fresh phase.
type SkipPhase struct {
	End            uint64
	Period         uint64
	SpecialResidue uint64
	SpecialProb    float64
	RegularLo      float64
	RegularHi      float64
}

// SkipController is a Controller that declares skip-safe phases, enabling
// the event-skip fair kernel (internal/kernel). Implementations maintain a
// cursor over slots: the cursor starts at slot 1 and advances past a slot
// when the slot is observed — explicitly via Observe, or in bulk via
// SkipTo. SkipPhase and ProbQuiet are always asked about slots at or ahead
// of the cursor.
//
// The contract ties the three methods to Prob/Observe semantics: for any
// slot sequence, driving the controller with Prob+Observe slot by slot and
// driving it with SkipPhase/ProbQuiet/SkipTo must yield identical states
// whenever the intervening slots carry no success.
type SkipController interface {
	Controller

	// SkipPhase fills ph with the phase starting at the cursor (slot ==
	// cursor). It must assign every field of ph: the kernel reuses one
	// SkipPhase for a whole run, so a field left alone would carry the
	// previous phase's value. The filled End must be ≥ slot.
	//
	// Assign the fields one at a time rather than as *ph = SkipPhase{…}:
	// the composite literal is built on the stack with 8-byte stores and
	// copied out with 16-byte loads that straddle them, which stalls
	// store forwarding once per phase.
	SkipPhase(slot uint64, ph *SkipPhase)

	// ProbQuiet returns the probability the controller would use in slot
	// s — equal to what Prob(s) would return after observing failures for
	// every slot in [cursor, s). It must not mutate state and is only
	// called for s within the current phase.
	ProbQuiet(s uint64) float64

	// SkipTo advances the cursor to slot s, updating state exactly as
	// Observe(x, false) for every x in [cursor, s) would. s is at most
	// End+1 of the current phase.
	SkipTo(s uint64)
}

// AttemptStation is a Station whose transmission slots can be enumerated
// without visiting the slots in between. Implementations promise that
// WillTransmit depends only on the station's own schedule and randomness —
// never on Feedback — which is what makes jumping over unvisited slots
// sound (nothing the station would have heard can change its behavior).
//
// A station must be driven through exactly one of its interfaces per
// execution: either slot-by-slot via WillTransmit, or event-by-event via
// NextAttempt. The two consume randomness differently.
type AttemptStation interface {
	Station

	// NextAttempt returns the first slot strictly greater than after in
	// which the station transmits, advancing its schedule state past that
	// slot's window. after = 0 yields the first attempt; for a station
	// whose message arrives at slot a on a global window clock, seeding
	// with after = a−1 reproduces WillTransmit's fast-forward semantics
	// (windows whose chosen slot precedes the arrival are missed).
	NextAttempt(after uint64, src *rng.Rand) (uint64, error)
}

// NextAttempt implements AttemptStation by drawing windows until one's
// uniformly chosen slot lands beyond after, via the same DrawWindow
// primitive WillTransmit uses.
func (s *WindowStation) NextAttempt(after uint64, src *rng.Rand) (uint64, error) {
	for s.chosenSlot <= after {
		end, chosen, err := DrawWindow(s.sched, s.windowEnd, src)
		if err != nil {
			return 0, err
		}
		s.windowEnd = end
		s.chosenSlot = chosen
	}
	return s.chosenSlot, nil
}

var _ AttemptStation = (*WindowStation)(nil)
