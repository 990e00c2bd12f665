package kernel

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/nocd"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// TestResidueArithmetic cross-checks firstResidue, countResidue and
// nthRegular against brute-force enumeration over small ranges: periods
// 1 (no special class) through 10 (Log-Fails Adaptive (10)), with start
// slots and candidate indices running across several periods.
func TestResidueArithmetic(t *testing.T) {
	t.Parallel()
	for _, p := range []uint64{1, 2, 3, 5, 7, 10} {
		span := 5*p + 10 // start slots and candidate indices cover ≥ 5 periods
		for r := uint64(0); r < p; r++ {
			regular := func(s uint64) bool { return p <= 1 || s%p != r }
			for a := uint64(0); a < span; a++ {
				// firstResidue: smallest slot ≥ a with slot ≡ r (mod p).
				want := a
				for want%p != r {
					want++
				}
				if got := firstResidue(a, p, r); got != want {
					t.Fatalf("firstResidue(%d,%d,%d) = %d, want %d", a, p, r, got, want)
				}
				// countResidue over [a, b).
				for b := a; b < a+span; b++ {
					cnt := uint64(0)
					for s := a; s < b; s++ {
						if s%p == r {
							cnt++
						}
					}
					if got := countResidue(a, b, p, r); got != cnt {
						t.Fatalf("countResidue(%d,%d,%d,%d) = %d, want %d", a, b, p, r, got, cnt)
					}
				}
				// nthRegular: n-th slot ≥ a (0-indexed) not ≡ r (mod p).
				for n := uint64(0); n < span; n++ {
					s, left := a, n
					for {
						if regular(s) {
							if left == 0 {
								break
							}
							left--
						}
						s++
					}
					if got := nthRegular(a, n, p, r); got != s {
						t.Fatalf("nthRegular(%d,%d,%d,%d) = %d, want %d", a, n, p, r, got, s)
					}
				}
			}
		}
	}
	// Period 0 means no special class, like period 1.
	if got := nthRegular(10, 5, 0, 0); got != 15 {
		t.Fatalf("nthRegular period 0: %d, want 15", got)
	}
}

// constCtrl is a synthetic skip controller with a constant probability on
// every slot (no special class), for closed-form validation.
type constCtrl struct {
	p      float64
	cursor uint64
	span   uint64
}

func (c *constCtrl) Prob(uint64) float64 { return c.p }
func (c *constCtrl) Observe(slot uint64, success bool) {
	c.cursor = slot + 1
}
func (c *constCtrl) ProbQuiet(uint64) float64 { return c.p }
func (c *constCtrl) SkipTo(s uint64) {
	if s > c.cursor {
		c.cursor = s
	}
}
func (c *constCtrl) SkipPhase(slot uint64, ph *protocol.SkipPhase) {
	ph.End = slot + c.span - 1
	ph.Period = 1 // no special class
	ph.SpecialResidue = 0
	ph.SpecialProb = 0
	ph.RegularLo = c.p
	ph.RegularHi = c.p
}

// TestFairRunConstantController: with constant per-slot probability p and
// k = 1, the completion slot is 1 + Geometric(P₁(1,p)); for general k the
// mean completion is k/q with q = P₁ evaluated along the descent. Checked
// against the analytic mean Σ_{m=1..k} 1/P₁(m,p) for small k, across
// phase spans that do and do not straddle successes.
func TestFairRunConstantController(t *testing.T) {
	t.Parallel()
	for _, tt := range []struct {
		k    int
		p    float64
		span uint64
	}{
		{k: 1, p: 0.2, span: 4},
		{k: 3, p: 0.1, span: 7},
		{k: 5, p: 0.05, span: 64},
		{k: 2, p: 0.5, span: 1}, // one-slot phases: pure phase-loop stress
	} {
		tt := tt
		t.Run(fmt.Sprintf("k=%d_p=%v_span=%d", tt.k, tt.p, tt.span), func(t *testing.T) {
			t.Parallel()
			const draws = 4000
			src := rng.New(uint64(tt.k)*1000 + tt.span)
			sum := 0.0
			for i := 0; i < draws; i++ {
				ctrl := &constCtrl{p: tt.p, cursor: 1, span: tt.span}
				slots, err := FairRun(tt.k, ctrl, src, 10_000_000)
				if err != nil {
					t.Fatal(err)
				}
				sum += float64(slots)
			}
			want := 0.0
			va := 0.0
			for m := 1; m <= tt.k; m++ {
				q := SuccessProb(m, tt.p)
				want += 1 / q
				va += (1 - q) / (q * q)
			}
			got := sum / draws
			tol := 6 * math.Sqrt(va/draws)
			if math.Abs(got-want) > tol {
				t.Errorf("mean completion %.2f, want %.2f ± %.2f", got, want, tol)
			}
		})
	}
}

// phaseCtrl is a synthetic skip controller with short phases, a special
// class on slots ≡ 1 (mod 3) and a regular class whose probability
// alternates between lo and hi in pairs of slots, so the thinning test
// rejects often. It records the first call that breaks the kernel's side
// of the contract: a ProbQuiet on a special slot or past the phase's End,
// or a delivery past the End.
type phaseCtrl struct {
	span, end       uint64
	special, lo, hi float64
	bad             error
}

func (c *phaseCtrl) fail(format string, args ...any) {
	if c.bad == nil {
		c.bad = fmt.Errorf(format, args...)
	}
}

func (c *phaseCtrl) Prob(s uint64) float64 {
	if s%3 == 1 {
		return c.special
	}
	return c.ProbQuiet(s)
}
func (c *phaseCtrl) Observe(s uint64, success bool) {
	if s > c.end {
		c.fail("delivery at slot %d past the phase end %d", s, c.end)
	}
}
func (c *phaseCtrl) ProbQuiet(s uint64) float64 {
	if s%3 == 1 || s > c.end {
		c.fail("ProbQuiet(%d) outside the regular slots of a phase ending at %d", s, c.end)
	}
	if s%4 < 2 {
		return c.lo
	}
	return c.hi
}
func (c *phaseCtrl) SkipTo(uint64) {}
func (c *phaseCtrl) SkipPhase(slot uint64, ph *protocol.SkipPhase) {
	c.end = slot + c.span - 1
	ph.End = c.end
	ph.Period = 3
	ph.SpecialResidue = 1
	ph.SpecialProb = c.special
	ph.RegularLo = c.lo
	ph.RegularHi = c.hi
}

// TestFairRunStaysInPhase: after every rejected thinning candidate the
// kernel draws the next one among the regular slots left in the phase,
// never past its End, across phase lengths from one slot to several
// periods and rejection rates near zero to near one.
func TestFairRunStaysInPhase(t *testing.T) {
	t.Parallel()
	src := rng.New(21)
	for _, span := range []uint64{1, 2, 3, 5, 8, 13, 40} {
		for _, k := range []int{1, 2, 5, 30} {
			for i := 0; i < 200; i++ {
				ctrl := &phaseCtrl{span: span, special: 0.02, lo: 0.002, hi: 0.5}
				if _, err := FairRun(k, ctrl, src, 10_000_000); err != nil {
					t.Fatal(err)
				}
				if ctrl.bad != nil {
					t.Fatalf("span=%d k=%d run %d: %v", span, k, i, ctrl.bad)
				}
			}
		}
	}
}

// TestFairRunSlotLimit: exhausting the budget yields ErrSlotLimit.
func TestFairRunSlotLimit(t *testing.T) {
	t.Parallel()
	ctrl := &constCtrl{p: 1e-9, cursor: 1, span: 16}
	_, err := FairRun(4, ctrl, rng.New(3), 1000)
	if !errors.Is(err, ErrSlotLimit) {
		t.Errorf("err = %v, want ErrSlotLimit", err)
	}
}

// TestFairRunZeroK: nothing to deliver completes at slot 0.
func TestFairRunZeroK(t *testing.T) {
	t.Parallel()
	ctrl := &constCtrl{p: 0.5, cursor: 1, span: 16}
	slots, err := FairRun(0, ctrl, rng.New(3), 1000)
	if err != nil || slots != 0 {
		t.Errorf("FairRun(0) = (%d, %v), want (0, nil)", slots, err)
	}
}

// TestSkipPhaseFillsEveryField: FairRun reuses one SkipPhase for a whole
// run, so every implementer must assign all six fields. A fill over
// sentinel values must equal a fill into a zero value, at every cursor
// along a slot-by-slot run with successes.
func TestSkipPhaseFillsEveryField(t *testing.T) {
	t.Parallel()
	must := func(c protocol.SkipController, err error) protocol.SkipController {
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	patience := baseline.WithLFAPatience(9)
	for _, tt := range []struct {
		name string
		ctrl protocol.SkipController
	}{
		{"ofa", must(core.NewOneFailAdaptive(core.DefaultOFADelta))},
		{"lfa_xiT=1/2", must(baseline.NewLogFailsAdaptive(0.01, 0.5, patience))},
		{"lfa_xiT=1/10", must(baseline.NewLogFailsAdaptive(0.01, 0.1, patience))},
		{"lfa_btEvery=1", must(baseline.NewLogFailsAdaptive(0.01, 0.9, patience))},
		{"cascade", must(nocd.NewCascade(2))},
		{"robust-ladder", must(nocd.NewRobustLadder(3))},
		{"constCtrl", &constCtrl{p: 0.25, cursor: 1, span: 5}},
		{"phaseCtrl", &phaseCtrl{span: 7, special: 0.02, lo: 0.002, hi: 0.5}},
	} {
		for slot := uint64(1); slot <= 300; slot++ {
			var zero protocol.SkipPhase
			tt.ctrl.SkipPhase(slot, &zero)
			stale := protocol.SkipPhase{
				End:            math.MaxUint64 - 3,
				Period:         12345,
				SpecialResidue: 777,
				SpecialProb:    -1.5,
				RegularLo:      -2.5,
				RegularHi:      -3.5,
			}
			tt.ctrl.SkipPhase(slot, &stale)
			if stale != zero {
				t.Fatalf("%s slot %d: fill over stale fields %+v, fill into zero %+v", tt.name, slot, stale, zero)
			}
			tt.ctrl.Prob(slot)
			tt.ctrl.Observe(slot, slot%11 == 0)
		}
	}
}

// TestSeqGeometricMatchesLogSpace: sequential inversion returns exactly
// what the log-space inversion returns for the same uniform, capped at
// the limit, over a grid of q ∈ [1/16, 1) and limits — and geomDraw
// picks the log-space path below seqGeomMin.
func TestSeqGeometricMatchesLogSpace(t *testing.T) {
	t.Parallel()
	src := rng.New(16)
	qs := []float64{seqGeomMin, 0.07, 0.1, 0.2, 1.0 / 3, 0.5, 0.75, 0.9, 0.999, 1 - 1e-9}
	limits := []uint64{0, 1, 2, 3, 7, 16, 100, math.MaxUint64}
	for _, q := range qs {
		denom := log1m(q)
		for _, limit := range limits {
			for i := 0; i < 20000; i++ {
				u := src.Float64Open()
				got := seqGeometric(u, 1-q, limit)
				if want := min(geometric(u, denom), limit); got != want {
					t.Fatalf("q=%v limit=%d u=%v: sequential %d, log-space %d", q, limit, u, got, want)
				}
			}
		}
	}
	for _, q := range []float64{1e-9, 0.01, seqGeomMin * 0.999} {
		a, b := rng.New(5), rng.New(5)
		d := newGeomDraw(q)
		for i := 0; i < 1000; i++ {
			got := d.draw(a, 1000)
			if want := min(geometric(b.Float64Open(), log1m(q)), 1000); got != want {
				t.Fatalf("q=%v draw %d: got %d, want log-space %d", q, i, got, want)
			}
		}
	}
}

// TestGeomDrawChiSquare: geomDraw's sequential regime reproduces the
// geometric pmf P(G = g) = (1−q)^g·q, with the mass at and above the
// limit landing on the limit.
func TestGeomDrawChiSquare(t *testing.T) {
	t.Parallel()
	const draws = 200000
	for _, tt := range []struct {
		q     float64
		limit uint64
	}{
		{q: seqGeomMin, limit: 200}, {q: 0.3, limit: 1000}, {q: 0.3, limit: 4}, {q: 0.8, limit: 50},
	} {
		src := rng.New(uint64(tt.q*1000) + tt.limit)
		d := newGeomDraw(tt.q)
		obs := make([]int, tt.limit+1)
		for i := 0; i < draws; i++ {
			obs[d.draw(src, tt.limit)]++
		}
		exp := make([]float64, tt.limit+1)
		for g := range exp {
			exp[g] = draws * math.Pow(1-tt.q, float64(g)) * tt.q
		}
		exp[tt.limit] = draws * math.Pow(1-tt.q, float64(tt.limit)) // P(G ≥ limit)
		stat, df := chiSquare(obs, exp)
		if crit := chiSquareCrit(df); stat > crit {
			t.Errorf("q=%v limit=%d: χ² = %.1f > %.1f (df %d)", tt.q, tt.limit, stat, crit, df)
		}
	}
}

// TestThinLowerBound: the squeeze bound never exceeds the exact thinning
// ratio P₁(m, pc)/P₁(m, pmax), for random m, pmax and pc on both sides of
// 1/m, with pmax the clamped maximizer of P₁(m, ·) over an interval that
// holds pc.
func TestThinLowerBound(t *testing.T) {
	t.Parallel()
	src := rng.New(9)
	for i := 0; i < 200000; i++ {
		m := 1 + int(src.Uint64n(1<<uint(src.Uint64n(21))))
		// An interval [lo, hi] ⊂ (0, 1) around a random scale of 1/m.
		c := math.Pow(2, 8*src.Float64()-4) / float64(m)
		lo := math.Min(c*src.Float64(), 0.999)
		hi := math.Min(lo+c*src.Float64(), 0.999)
		qmax, pmax := maxSuccessProb(m, lo, hi)
		if qmax == 0 || lo >= hi {
			continue
		}
		pc := lo + (hi-lo)*src.Float64()
		bound := thinLowerBound(m, pc, pmax)
		exact := SuccessProb(m, pc) / SuccessProb(m, pmax)
		if float64(m-1)*pc >= deadExponent {
			exact = 0 // successProb's cutoff: the exact test rejects
		}
		if bound > exact+1e-12 { // rounding only, far inside squeezeMargin
			t.Fatalf("m=%d pmax=%v pc=%v: bound %v > exact ratio %v", m, pmax, pc, bound, exact)
		}
	}
}
