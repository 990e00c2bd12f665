package kernel

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/stats"
)

func TestSuccessProb(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		m    int
		p    float64
		want float64
	}{
		{name: "no stations", m: 0, p: 0.5, want: 0},
		{name: "negative m", m: -3, p: 0.5, want: 0},
		{name: "zero prob", m: 10, p: 0, want: 0},
		{name: "single station", m: 1, p: 0.25, want: 0.25},
		{name: "single station certain", m: 1, p: 1, want: 1},
		{name: "two stations p=1 collide", m: 2, p: 1, want: 0},
		{name: "two stations", m: 2, p: 0.5, want: 0.5}, // 2·(1/2)·(1/2)
		{name: "optimal p=1/m", m: 4, p: 0.25, want: 4 * 0.25 * 0.75 * 0.75 * 0.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := SuccessProb(tt.m, tt.p); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("SuccessProb(%d, %v) = %v, want %v", tt.m, tt.p, got, tt.want)
			}
		})
	}
}

func TestSuccessProbLargeM(t *testing.T) {
	t.Parallel()
	// m·p = 1 with huge m: P₁ → e^{-1}.
	const m = 10_000_000
	got := SuccessProb(m, 1.0/m)
	want := math.Exp(-1)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("SuccessProb(1e7, 1e-7) = %v, want ~1/e = %v", got, want)
	}
}

// relErr returns |got−want|/|want|, or |got| when want is zero.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestExpNegMatchesExp holds the tabulated exponential to math.Exp at
// every table knot, at the floats on either side of it, and across the
// knot intervals, plus the fallback above deadExponent.
func TestExpNegMatchesExp(t *testing.T) {
	t.Parallel()
	check := func(y float64) {
		if y < 0 {
			return
		}
		if got, want := expNeg(y), math.Exp(-y); relErr(got, want) > 1e-15 {
			t.Fatalf("expNeg(%v) = %v, want %v (rel err %.3g)", y, got, want, relErr(got, want))
		}
	}
	for i := 0; i <= expKnots*deadExponent; i++ {
		y := float64(i) / expKnots
		check(y)
		check(math.Nextafter(y, math.Inf(-1)))
		check(math.Nextafter(y, math.Inf(1)))
		for j := 1; j < 8; j++ {
			check(y + float64(j)/(8*expKnots))
		}
	}
	for _, y := range []float64{deadExponent, 100, 700, 800} {
		check(y)
	}
	if got := expNeg(math.Inf(1)); got != 0 {
		t.Fatalf("expNeg(+Inf) = %v, want 0", got)
	}
}

// TestSuccessProbFastPath: the kernel's successProb (log1m, expNeg and
// the dead-class cutoff) stays within 1e-13 relative of SuccessProb on a
// dense (m, p) grid — every p that puts the exponent (m−1)·|log(1−p)| on
// a table knot, midway between knots, and a log-spaced sweep — wherever
// the class is not cut off as dead.
func TestSuccessProbFastPath(t *testing.T) {
	t.Parallel()
	worst := 0.0
	check := func(m int, p float64) {
		got, want := successProb(m, p), SuccessProb(m, p)
		if float64(m-1)*p >= deadExponent {
			if got != 0 {
				t.Fatalf("successProb(%d, %v) = %v in a dead class, want 0", m, p, got)
			}
			return
		}
		if e := relErr(got, want); e > 1e-13 {
			t.Fatalf("successProb(%d, %v) = %v, SuccessProb = %v (rel err %.3g)", m, p, got, want, e)
		} else if e > worst {
			worst = e
		}
	}
	for _, m := range []int{1, 2, 3, 7, 16, 100, 1000, 4097, 65536, 100_003, 1_000_000, 10_000_000} {
		if m > 1 {
			for i := 0; i <= 2*expKnots*deadExponent; i++ {
				// (m−1)·(−log(1−p)) = i/128.
				check(m, -math.Expm1(-float64(i)/(2*expKnots)/float64(m-1)))
			}
		}
		for i := 0; i <= 4000; i++ {
			check(m, math.Pow(10, -9+9*float64(i)/4000))
		}
	}
	t.Logf("worst relative error %.3g", worst)
}

// bigLog1m returns log(1−p) rounded to float64 from a 256-bit
// evaluation of −2·atanh(z), z = p/(2−p): p and 2−p are exact at that
// precision, and the series Σ z^(2j+1)/(2j+1) runs until its terms fall
// under 2⁻²⁶⁰ of z.
func bigLog1m(p float64) float64 {
	const prec = 256
	newF := func() *big.Float { return new(big.Float).SetPrec(prec) }
	pb := newF().SetFloat64(p)
	z := newF().Quo(pb, newF().Sub(newF().SetInt64(2), pb))
	z2 := newF().Mul(z, z)
	eps := newF().SetMantExp(z, -260)
	sum, pow, term := newF(), newF().Set(z), newF()
	for j := int64(0); ; j++ {
		term.Quo(pow, newF().SetInt64(2*j+1))
		sum.Add(sum, term)
		if term.Cmp(eps) < 0 {
			break
		}
		pow.Mul(pow, z2)
	}
	f, _ := sum.Mul(sum, newF().SetInt64(-2)).Float64()
	return f
}

// ulpErr returns |got−want| in units of the spacing of floats at want.
func ulpErr(got, want float64) float64 {
	a := math.Abs(want)
	return math.Abs(got-want) / (math.Nextafter(a, math.Inf(1)) - a)
}

// TestLog1mAccuracy holds log1m within 4 ulps of a math/big reference
// over the atanh band (10⁻⁴, 1/16], log-spaced, and on both sides of
// each band edge, with a sample of the series and math.Log bands.
func TestLog1mAccuracy(t *testing.T) {
	t.Parallel()
	var ps []float64
	const n = 20000
	for i := 0; i <= n; i++ {
		// 10⁻⁴ … 1/16, then sparser below and above.
		ps = append(ps, 1e-4*math.Pow(625, float64(i)/n))
	}
	for i := 0; i <= 200; i++ {
		ps = append(ps, 1e-9*math.Pow(1e5, float64(i)/200), 1.0/16+(0.9-1.0/16)*float64(i)/200)
	}
	for _, edge := range []float64{1e-4, 1.0 / 16} {
		lo, hi := edge, edge
		for i := 0; i < 64; i++ {
			ps = append(ps, lo, hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
		}
	}
	worst := 0.0
	for _, p := range ps {
		got, want := log1m(p), bigLog1m(p)
		if e := ulpErr(got, want); e > 4 {
			t.Fatalf("log1m(%v) = %v, want %v (%.2f ulp)", p, got, want, e)
		} else if e > worst {
			worst = e
		}
	}
	t.Logf("worst error %.2f ulp over %d points", worst, len(ps))
}

// chiSquareCrit is the chi-square quantile at upper-tail probability
// 1e-6 for df degrees of freedom (Wilson–Hilferty approximation).
func chiSquareCrit(df int) float64 {
	z := stats.NormalQuantile(1 - 1e-6)
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+z*math.Sqrt(v), 3)
}

// chiSquare returns Pearson's statistic and its degrees of freedom for
// observed against expected counts, pooling each cell whose expected
// count is under 5 into its successor (a short last pool joins the cell
// before it).
func chiSquare(obs []int, exp []float64) (stat float64, df int) {
	var pools [][2]float64 // observed, expected
	var o, e float64
	for i := range obs {
		o += float64(obs[i])
		e += exp[i]
		if e >= 5 {
			pools = append(pools, [2]float64{o, e})
			o, e = 0, 0
		}
	}
	if n := len(pools); n > 0 {
		pools[n-1][0] += o
		pools[n-1][1] += e
	}
	for _, c := range pools {
		stat += (c[0] - c[1]) * (c[0] - c[1]) / c[1]
	}
	return stat, len(pools) - 1
}
