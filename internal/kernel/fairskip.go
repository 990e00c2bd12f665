package kernel

import (
	"fmt"
	"math"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// This file samples fair-protocol executions success by success.
//
// Within one SkipPhase the slots split into a special class (constant
// probability) and a regular class (probability in [RegularLo,
// RegularHi]). With m active stations a slot of probability p succeeds
// with q = P₁(m, p), so over the phase's quiet stretch the two classes
// are independent sequences of Bernoulli trials:
//
//   - Special class: constant q_s — the index of the first success is
//     exactly Geometric(q_s). One draw.
//
//   - Regular class: varying q_t ≤ q_max := max over p ∈ [lo, hi] of
//     P₁(m, p). Thinning (rejection sampling): draw candidate indices
//     from Geometric(q_max), accept each candidate t with probability
//     q_t/q_max. The accepted process is exactly the non-homogeneous
//     Bernoulli first-success process — the standard thinning argument,
//     discrete-time version. When lo == hi the accept test is skipped
//     (q_t ≡ q_max: every candidate accepted), making the draw exact
//     with no rejection cost.
//
// The next success is the minimum across the two classes; everything up
// to it is skipped in O(1) via SkipController.SkipTo, which replays the
// silent-slot bookkeeping in closed form.
//
// Two shortcuts keep the per-delivery cost low without changing any
// draw's value beyond floating-point rounding:
//
//   - Geometric draws with q ≥ seqGeomMin invert sequentially: G ≥ n iff
//     U ≤ (1−q)ⁿ, one multiply per failure up to the class's slot count,
//     instead of ⌊ln U / ln(1−q)⌋ (geomDraw).
//
//   - The thinning test accepts a candidate when its uniform falls below
//     a cheap lower bound on q_t/q_max (thinLowerBound) and computes the
//     exact q_t only otherwise — a squeeze, so the accept decision is the
//     exact test's decision.

// firstResidue returns the smallest slot ≥ from with slot ≡ r (mod p).
func firstResidue(from, p, r uint64) uint64 {
	return from + (r+p-from%p)%p
}

// countResidue returns the number of slots in [a, b) with slot ≡ r (mod p).
func countResidue(a, b, p, r uint64) uint64 {
	if b <= a {
		return 0
	}
	f := func(y uint64) uint64 { // slots in [0, y) ≡ r (mod p)
		if y <= r {
			return 0
		}
		return (y-r-1)/p + 1
	}
	return f(b) - f(a)
}

// seqGeomMin is the smallest success probability geomDraw inverts
// sequentially: the expected E[G] = (1−q)/q ≤ 15 multiplies then cost
// about what the log-space draw's logarithm does.
const seqGeomMin = 1.0 / 16

// geomDraw draws capped Geometric(q) failure counts for one fixed q.
type geomDraw struct {
	surv  float64 // 1 − q, for sequential inversion (q ≥ seqGeomMin)
	denom float64 // log(1 − q) < 0, for log-space inversion; 0 selects surv
}

// newGeomDraw prepares draws for success probability q ∈ (0, 1], paying
// the log-space denominator once per phase when it is needed at all.
func newGeomDraw(q float64) geomDraw {
	if q >= seqGeomMin {
		return geomDraw{surv: 1 - q}
	}
	return geomDraw{denom: log1m(q)}
}

// draw returns min(G, limit) for G ~ Geometric(q), consuming one uniform.
func (d geomDraw) draw(src *rng.Rand, limit uint64) uint64 {
	u := src.Float64Open()
	if d.denom == 0 {
		return seqGeometric(u, d.surv, limit)
	}
	return min(geometric(u, d.denom), limit)
}

// geometric inverts the Geometric(q) CDF at the uniform u ∈ (0, 1) given
// denom = log(1−q) < 0: G = ⌊ln u / ln(1−q)⌋.
func geometric(u, denom float64) uint64 {
	g := math.Log(u) / denom
	if g >= math.MaxUint64 || math.IsNaN(g) {
		return rng.GeometricInf
	}
	return uint64(g)
}

// seqGeometric returns min(G, limit) for the Geometric(q) variate G at the
// uniform u ∈ (0, 1), given surv = 1−q: the same inversion as geometric
// (G ≥ n iff u ≤ (1−q)ⁿ) by walking n up one multiply at a time.
func seqGeometric(u, surv float64, limit uint64) uint64 {
	var g uint64
	for t := surv; g < limit && u <= t; t *= surv {
		g++
	}
	return g
}

// squeezeMargin keeps thinLowerBound's acceptances strictly inside the
// exact test's, whatever the floating-point rounding of either side.
const squeezeMargin = 1e-9

// thinLowerBound returns a lower bound on P₁(m, pc)/P₁(m, pmax), where
// pmax maximizes P₁(m, ·) over an interval holding pc. The ratio is
// (pc/pmax)·((1−pc)/(1−pmax))^(m−1):
//
//   - rising side, pc ≤ pmax: the second factor is ≥ 1, so pc/pmax;
//   - falling side, pc > pmax: the second factor is (1−x)^(m−1) with
//     x = (pc−pmax)/(1−pmax) ∈ (0, 1], and Bernoulli's inequality gives
//     (1−x)^(m−1) ≥ 1 − (m−1)·x.
//
// Candidates in a dead class (successProb's cutoff) get 0, so the squeeze
// never accepts what the exact test rejects.
func thinLowerBound(m int, pc, pmax float64) float64 {
	r := pc / pmax
	if pc <= pmax {
		return r
	}
	if float64(m-1)*pc >= deadExponent {
		return 0
	}
	return r * (1 - float64(m-1)*(pc-pmax)/(1-pmax))
}

// nthRegular returns the n-th slot ≥ from (0-indexed) that is NOT ≡ r
// (mod p), r < p. For p ≤ 1 every slot is regular. Otherwise each period
// holds p−1 regular slots: with from moved off a special slot and pos ∈
// [1, p−1] its offset past the special residue, the answer is n regular
// slots on plus one special slot per period crossed.
func nthRegular(from, n, p, r uint64) uint64 {
	switch {
	case p <= 1:
		return from + n
	case p == 2:
		if from&1 == r {
			from++
		}
		return from + 2*n
	}
	pos := from%p + p - r
	if pos >= p {
		pos -= p
	}
	if pos == 0 {
		from++
		pos = 1
	}
	return from + n + (pos-1+n)/(p-1)
}

// FairRun simulates static k-selection under the fair protocol ctrl and
// returns the slot of the k-th delivery. If the slot budget is exhausted
// first it returns ErrSlotLimit (wrapped), with the number of undelivered
// messages in the error text. Cost is O(1) per delivery plus O(1) per
// controller phase, independent of the number of slots skipped.
func FairRun(k int, ctrl protocol.SkipController, src *rng.Rand, maxSlots uint64) (uint64, error) {
	if k < 0 {
		return 0, fmt.Errorf("kernel: negative k %d", k)
	}
	m := k
	if m == 0 {
		return 0, nil
	}
	slot := uint64(1)
	var ph protocol.SkipPhase
	for slot <= maxSlots {
		ctrl.SkipPhase(slot, &ph)
		end := ph.End
		if end < slot {
			end = slot
		}
		if end > maxSlots {
			end = maxSlots
		}
		p, r := ph.Period, ph.SpecialResidue
		if p == 0 {
			p = 1
		}

		// Special class: exact geometric over its constant probability.
		var spec uint64
		specFound := false
		if p >= 2 {
			if qs := successProb(m, ph.SpecialProb); qs > 0 {
				if first := firstResidue(slot, p, r); first <= end {
					n := (end-first)/p + 1 // special slots in the phase
					if g := newGeomDraw(qs).draw(src, n); g < n {
						spec = first + g*p
						specFound = true
					}
				}
			}
		}

		// Regular class: thinned geometric against the dominating q_max.
		var reg uint64
		regFound := false
		lo, hi := ph.RegularLo, ph.RegularHi
		if qmax, pmax := maxSuccessProb(m, lo, hi); qmax > 0 {
			geo := newGeomDraw(qmax)
			cur := slot
			cnt := end + 1 - cur // regular slots in [cur, end]
			if p > 1 {
				cnt -= countResidue(cur, end+1, p, r)
			}
			for cnt > 0 {
				g := geo.draw(src, cnt)
				if g >= cnt {
					break // no further candidate inside the phase
				}
				c := nthRegular(cur, g, p, r)
				if specFound && c > spec {
					break // the special class already succeeded earlier
				}
				if lo < hi {
					// Accept with q_c/q_max (thinning); ProbQuiet is the
					// probability at c given the quiet stretch before it.
					// The squeeze settles most candidates without q_c.
					pc := ctrl.ProbQuiet(c)
					u := src.Float64()
					if u >= thinLowerBound(m, pc, pmax)-squeezeMargin &&
						u*qmax >= successProb(m, pc) {
						cur = c + 1
						cnt -= g + 1 // the candidate and the g regular slots before it
						continue
					}
				}
				reg = c
				regFound = true
				break
			}
		}

		if !specFound && !regFound {
			ctrl.SkipTo(end + 1)
			slot = end + 1
			continue
		}
		c := spec
		if !specFound || (regFound && reg < spec) {
			c = reg
		}
		ctrl.SkipTo(c)
		m--
		ctrl.Observe(c, true)
		if m == 0 {
			return c, nil
		}
		slot = c + 1
	}
	return 0, fmt.Errorf("%w (limit %d, remaining %d of %d)", ErrSlotLimit, maxSlots, m, k)
}
