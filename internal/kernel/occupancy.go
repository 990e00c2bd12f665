package kernel

import (
	"math"
	"math/bits"

	"repro/internal/rng"
)

// This file samples one window of a windowed protocol: m active stations
// each pick one of w slots uniformly at random (m balls into w bins) and
// the singleton bins are deliveries. Three exact samplers cover the three
// regimes:
//
//   - stepByBall, O(m + w/64): sample each ball's bin, two bins per
//     random word (binPair), into a two-plane bitmap. A bounded uniform
//     costs roughly a tenth of a binomial draw (which pays an exp and a
//     log for its q^n factor), so this wins up to m ≈ ballBinCostRatio·w.
//
//   - stepByBin, O(w): sample occupancies in slot order via the binomial
//     chain N_j ~ Binomial(remaining, 1/(w−j+1)). Cheapest when m ≫ w
//     and the window is still expected to deliver.
//
//   - stepBySeries, O(series terms): for saturated windows (m ≫ w) the
//     expected singleton count ES = m·(1−1/w)^(m−1) is tiny and almost
//     every window is silent. Draw the singleton count S directly from
//     its exact distribution
//
//       P(S = s) = C(w,s)·(m)_s·A(m−s, w−s) / w^m,
//       A(m',w') = Σ_j (−1)^j C(w',j)·(m')_j·(w'−j)^(m'−j),
//
//     where A counts placements with no singleton (inclusion–exclusion
//     over the forced-singleton bins). Terms decay like ES^j/j!, so the
//     alternating series needs ~15 terms at ES = 1/2 — independent of w.
//     Conditioned on S = s, bin exchangeability makes the singleton slot
//     set a uniform s-subset of the w slots, so the last-delivery slot is
//     sampled with s more uniforms. This turns the saturated phases of
//     Exp Back-on/Back-off from O(w) per window into O(1).
//
// All three are exact in distribution; stepBySeries truncates terms below
// 10⁻¹⁸, far under the 2⁻⁵³ resolution of the uniform it inverts.

const (
	// seriesMinWindow is the smallest window handed to stepBySeries; under
	// it the O(w) binomial chain is already cheap.
	seriesMinWindow = 64
	// seriesMaxES is the largest expected singleton count handed to
	// stepBySeries; above it windows deliver frequently enough that the
	// cumulative-sum walk over P(S=s) loses to the binomial chain.
	seriesMaxES = 0.5
	// seriesEps truncates the alternating series; the discarded tail is
	// bounded by the first omitted term.
	seriesEps = 1e-18
	// ballBinCostRatio is the measured cost of one binomial draw in units
	// of one bounded-uniform draw: ball-by-ball (m uniforms) beats the
	// binomial chain (w binomials) up to m ≈ ballBinCostRatio·w. At 12 the
	// chain's band m/12 < w closes almost exactly onto the series branch's
	// ES ≤ 1/2 envelope (ES ≤ 1/2 ⇔ w ≲ m/ln(2m)), measured fastest on
	// the Exp Back-on/Back-off grid.
	ballBinCostRatio = 12
)

// Window samples windowed-protocol windows. The zero value is ready to
// use; reusing one across executions amortizes the ball-by-ball
// branch's occupancy map, w/32 bytes for the largest window w.
type Window struct {
	// planes is the ball-by-ball occupancy map: for each 64 bins, a word
	// with bit b set once bin b holds a ball and, next to it, a word with
	// bit b set once it holds two. All zero between windows.
	planes []uint64
}

// Step throws m balls into w bins and returns the number of singleton
// bins and the 1-based slot index of the last singleton (0 if none),
// choosing the cheapest exact sampler for the regime.
func (o *Window) Step(m, w int, src *rng.Rand) (delivered, last int) {
	if m <= ballBinCostRatio*w {
		return o.stepByBall(m, w, src)
	}
	if w >= seriesMinWindow {
		x := float64(m-1) / float64(w)
		if x >= deadExponent {
			// ES ≤ m·e⁻⁶⁴: silent to within floating-point noise
			// (the same argument as deadExponent). No draws consumed.
			return 0, 0
		}
		if es := float64(m) * math.Exp(float64(m-1)*log1m(1/float64(w))); es <= seriesMaxES {
			return stepBySeries(m, w, src)
		}
	}
	return stepByBin(m, w, src)
}

// stepByBall samples each ball's bin: O(m) uniforms, two per random word
// (binPair), marked in the two-plane occupancy map, then one pass over
// its w/64 word pairs counts the bins hit once (once &^ twice) and
// clears the map. Used when m is not much larger than w. Correct for any
// m, w ≥ 1.
func (o *Window) stepByBall(m, w int, src *rng.Rand) (delivered, last int) {
	words := 2 * ((w + 63) / 64)
	if cap(o.planes) < words {
		o.planes = make([]uint64, words)
	}
	planes := o.planes[:words]
	for i := 0; i < m; i += 2 {
		b0, b1 := binPair(src, uint64(w))
		throw(planes, b0)
		if i+1 < m { // odd m: the last pair's second bin goes unused
			throw(planes, b1)
		}
	}
	for j := 0; j < len(planes); j += 2 {
		if single := planes[j] &^ planes[j+1]; single != 0 {
			delivered += bits.OnesCount64(single)
			last = 32*j + 64 - bits.LeadingZeros64(single)
		}
		planes[j], planes[j+1] = 0, 0
	}
	return delivered, last
}

// throw lands one ball in bin b: a bin already hit once is now hit twice.
func throw(planes []uint64, b uint64) {
	pair := planes[2*(b/64) : 2*(b/64)+2]
	bit := uint64(1) << (b % 64)
	pair[1] |= pair[0] & bit
	pair[0] |= bit
}

// binPair returns two independent uniform bins in [0, w), w ≥ 1, from one
// random word when it can: each 32-bit half r maps to the bin ⌊r·w/2³²⌋
// by Lemire's multiply-shift, which is exactly uniform once halves whose
// low product word falls below 2³² mod w are rejected. A low word ≥ w
// is never rejected (2³² mod w < w), so the common case needs neither
// the modulo nor a second word; binPairSlow handles the rest.
func binPair(src *rng.Rand, w uint64) (uint64, uint64) {
	x := src.Uint64()
	lo, hi := uint64(uint32(x))*w, (x>>32)*w
	if uint32(lo) >= uint32(w) && uint32(hi) >= uint32(w) && w < 1<<31 {
		return lo >> 32, hi >> 32
	}
	return binPairSlow(src, w, x)
}

// binPairSlow finishes binPair from the word x: it runs the full Lemire
// rejection over the halves of x and, as needed, of further words, and
// returns the first two accepted bins. Windows of 2³¹ bins or more
// draw each bin with Uint64n instead.
func binPairSlow(src *rng.Rand, w, x uint64) (uint64, uint64) {
	if w >= 1<<31 {
		return src.Uint64n(w), src.Uint64n(w)
	}
	w32 := uint32(w)
	thresh := -w32 % w32 // 2³² mod w
	var bins [2]uint64
	n := 0
	for {
		for _, r := range [2]uint32{uint32(x), uint32(x >> 32)} {
			if prod := uint64(r) * w; uint32(prod) >= thresh {
				bins[n] = prod >> 32
				if n++; n == 2 {
					return bins[0], bins[1]
				}
			}
		}
		x = src.Uint64()
	}
}

// stepByBin samples bin occupancies in slot order via the binomial chain
// N_j ~ Binomial(remaining, 1/(w−j+1)): O(w) binomial draws. Used when
// m > w and the window is not saturated enough for stepBySeries.
func stepByBin(m, w int, src *rng.Rand) (delivered, last int) {
	rem := m
	for j := 0; j < w && rem > 0; j++ {
		var nj int
		if left := w - j; left == 1 {
			nj = rem // all remaining balls land in the last bin
		} else {
			nj = src.Binomial(rem, 1/float64(left))
		}
		if nj == 1 {
			delivered++
			last = j + 1
		}
		rem -= nj
	}
	return delivered, last
}

// seriesRatio is the common term ratio of the singleton-count series:
// with mr balls and wr bins remaining after i forced singletons,
//
//	ratio = [(mr−i)/(i+1)] · ((wr−i−1)/(wr−i))^(mr−i−1)
//
// relates consecutive terms both along j (within one P(S=s) series) and
// along s (between the leading terms of consecutive s).
func seriesRatio(mr, wr, i int) float64 {
	return float64(mr-i) / float64(i+1) *
		math.Exp(float64(mr-i-1)*log1m(1/float64(wr-i)))
}

// singletonPMF returns P(S = s) by summing the alternating series with
// leading term t0 = C(w,s)·(m)_s·(w−s)^(m−s)/w^m (supplied by the caller,
// maintained incrementally across s).
func singletonPMF(m, w, s int, t0 float64) float64 {
	sum, t := t0, t0
	sign := -1.0
	for j := 0; j < m-s && j < w-s; j++ {
		t *= seriesRatio(m-s, w-s, j)
		if t < seriesEps {
			break
		}
		sum += sign * t
		sign = -sign
	}
	return sum
}

// stepBySeries draws the singleton count S from its exact distribution by
// inverting one uniform against the cumulative series, then places the S
// singletons as a uniform S-subset of the w slots. Requires m > w ≥
// seriesMinWindow and small ES (enforced by Step's dispatch).
func stepBySeries(m, w int, src *rng.Rand) (delivered, last int) {
	u := src.Float64()
	t0 := 1.0 // leading term for s = 0: w^m/w^m
	cum := 0.0
	s := 0
	for {
		cum += singletonPMF(m, w, s, t0)
		if u < cum {
			break
		}
		// Advance the leading term: t0(s+1) = t0(s)·C ratio (see
		// seriesRatio). When it underflows, the true tail mass is below
		// floating-point resolution of u — clamp.
		t0 *= seriesRatio(m, w, s)
		s++
		if t0 < seriesEps || s >= w {
			break
		}
	}
	if s == 0 {
		return 0, 0
	}
	// Conditioned on S = s the singleton slots are a uniform s-subset:
	// draw s distinct slots by rejection (collision probability ≤ s/w,
	// negligible for s ≪ w).
	var picked [64]int
	if s > len(picked) {
		s = len(picked) // unreachable for ES ≤ seriesMaxES; safety clamp
	}
	for i := 0; i < s; {
		b := int(src.Uint64n(uint64(w)))
		dup := false
		for _, p := range picked[:i] {
			if p == b {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		picked[i] = b
		i++
		if b+1 > last {
			last = b + 1
		}
	}
	return s, last
}
