package kernel

import "math"

// log1m returns log(1-p) for p ∈ [0, 1). math.Log1p has no assembly
// implementation and dominates profiles of the skip kernel, so log1m
// splits [0, 1) into three bands, each within a few ulps of log(1−p):
//
//   - p ≤ 10⁻⁴: a short series, relative error below 1e-17.
//   - 10⁻⁴ < p ≤ 1/16: log(1−p) = −2·atanh(z) with z = p/(2−p) ≤ 1/31,
//     one division and a series in z² whose first omitted term is below
//     10⁻¹⁹ of the result.
//   - p > 1/16: math.Log(a) with a = 1−p. The rounding error e of a is
//     recovered exactly (e = (1−a)−p, both subtractions exact by
//     Sterbenz's lemma) and log(1−p) = log(a+e) is corrected to first
//     order, log a + e/a: uncorrected, that error of up to 2⁻⁵³ in the
//     log becomes a relative error of (m−1)·2⁻⁵³ in (1−p)^(m−1).
func log1m(p float64) float64 {
	switch {
	case p > 1.0/16:
		a := 1 - p
		return math.Log(a) + ((1-a)-p)/a
	case p > 1e-4:
		z := p / (2 - p)
		z2 := z * z
		return -2 * z * (1 + z2*(1.0/3+z2*(1.0/5+z2*(1.0/7+z2*(1.0/9+z2*(1.0/11))))))
	}
	return -p * (1 + p*(0.5+p*(1.0/3+p*0.25)))
}

// deadExponent is the (m-1)·p threshold beyond which a slot class is
// treated as never succeeding: (1-p)^(m-1) ≤ e^{-(m-1)p}, so the success
// probability is below m·p·e^{-64} < 10^{-20} — more than ten orders of
// magnitude under one expected event per the longest representable run
// (10^10 slots). Cutting it costs less distributional distortion than
// floating-point rounding and saves an exp+log per phase for every class
// that is hopeless (e.g. the BT class while thousands of stations
// contend).
const deadExponent = 64

// expKnots is the number of expTable knots per unit of exponent.
const expKnots = 64

// expTable[i] = e^(−i/64) for i ∈ [0, 64·deadExponent].
var expTable = func() (t [expKnots*deadExponent + 1]float64) {
	for i := range t {
		t[i] = math.Exp(-float64(i) / expKnots)
	}
	return t
}()

// expNeg returns e^(−y) for y ≥ 0. Below deadExponent it splits
// y = i/64 + r with r ∈ [0, 1/64), both parts exact in floating point,
// and multiplies the tabulated e^(−i/64) by the degree-7 Taylor
// polynomial of e^(−r), whose truncation error r⁸/8! < 10⁻¹⁹ is far
// under one ulp: the result is within a few ulps of math.Exp(−y) at a
// fraction of its cost. Larger y (and NaN) fall back to math.Exp.
func expNeg(y float64) float64 {
	if !(y < deadExponent) {
		return math.Exp(-y)
	}
	i := int(y * expKnots)
	r := y - float64(i)/expKnots
	// Estrin's scheme: the four coefficient pairs, r² and r⁴ do not wait
	// on each other, so the longest dependency chain is four
	// multiply-adds instead of Horner's seven.
	r2 := r * r
	p := (1 - r + r2*(1.0/2-r*(1.0/6))) + r2*r2*(1.0/24-r*(1.0/120)+r2*(1.0/720-r*(1.0/5040)))
	return expTable[i] * p
}

// successProb is the kernel-internal fast path of SuccessProb: identical
// except for the dead-class cutoff and the log1m and expNeg fast paths.
func successProb(m int, p float64) float64 {
	switch {
	case m <= 0 || p <= 0:
		return 0
	case m == 1:
		return math.Min(p, 1)
	case p >= 1:
		return 0
	default:
		e := float64(m-1) * p
		if e >= deadExponent {
			return 0
		}
		return float64(m) * p * expNeg(-float64(m-1)*log1m(p))
	}
}
