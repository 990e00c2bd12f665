package kernel

import (
	"math"
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
