package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// The paper grid: the five paper protocols at k = 10…10⁵ with 10 runs
// per point — the default grid of `macsim table1`.
const (
	gridMaxExp = 5
	gridRuns   = 10
	gridTopK   = 100_000
)

// gridPath is the paper-grid workload: a closed loop with one caller
// running back-to-back spec.Run evaluate sweeps, each with a fresh
// seed. It reports contenders resolved (Σ k·runs) per wall second as
// the median over sweeps, checks every sweep's k=10⁵ ratios against
// the Theorem 1 and 2 bounds, and at the end reruns the first seed and
// requires a byte-identical result document.
type gridPath struct {
	seeds      *source
	rates      []float64 // contenders per second, one per sweep
	sweeps     int
	boundFails int
	boundErr   string
	firstSeed  uint64
	firstDoc   []byte
	tally
}

func newGridPath(e *env) path {
	return &gridPath{seeds: newSource(e.seed, "grid"), boundErr: "none"}
}

// setup runs a warm-up sweep over k ≤ 10⁴, which faults in code and
// heap.
func (g *gridPath) setup(ctx context.Context, e *env, reps int) ([]float64, error) {
	warm := newSource(e.seed, "grid/warm").seed()
	var times []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if _, err := evaluate(ctx, e.tr, 0, spec.EvaluateSpec{MaxExp: gridMaxExp - 1, Runs: gridRuns, Seed: warm}); err != nil {
			return nil, fmt.Errorf("paper-grid warm-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}

// slice runs sweeps until budget is spent; at least one.
func (g *gridPath) slice(ctx context.Context, e *env, budget time.Duration) time.Duration {
	root := e.tr.begin("bench.paper-grid", 0)
	defer e.tr.end(root)
	start := time.Now()
	for time.Since(start) < budget && ctx.Err() == nil {
		seed := g.seeds.seed()
		t := time.Now()
		res, err := evaluate(ctx, e.tr, root, spec.EvaluateSpec{MaxExp: gridMaxExp, Runs: gridRuns, Seed: seed})
		elapsed := time.Since(t).Seconds()
		if err != nil {
			g.check("paper-grid sweep", false, err.Error())
			break
		}
		g.op(true)
		g.sweeps++
		g.rates = append(g.rates, contenders(res.Evaluate)/elapsed)
		if err := theoremBounds(res.Evaluate); err != nil {
			g.boundFails++
			g.boundErr = fmt.Sprintf("seed %d: %v", seed, err)
		}
		if g.firstDoc == nil {
			g.firstSeed = seed
			if g.firstDoc, err = json.Marshal(res.Document()); err != nil {
				g.check("paper-grid document", false, err.Error())
			}
		}
	}
	return time.Since(start)
}

func (g *gridPath) collect(ctx context.Context, e *env) phaseOut {
	out := newPhaseOut()
	out.tally, g.tally = g.tally, tally{}
	rate := value{v: median(g.rates), n: len(g.rates), note: "median of per-sweep rates"}
	out.metrics["grid_contenders_per_s"] = rate
	out.cost = 1 / rate.v
	g.rates = nil
	return out
}

// close checks the bounds over every sweep of the run and reruns the
// first seed, byte for byte. The peak resident set is the benchmark
// process's.
func (g *gridPath) close(ctx context.Context, e *env) (tally, float64) {
	var t tally
	t.check("paper-grid bounds", g.sweeps > 0 && g.boundFails == 0,
		fmt.Sprintf("%d of %d sweeps outside the Theorem 1/2 bounds at k=%d (last: %s)", g.boundFails, g.sweeps, gridTopK, g.boundErr))
	if g.firstDoc != nil {
		res, err := evaluate(ctx, e.tr, 0, spec.EvaluateSpec{MaxExp: gridMaxExp, Runs: gridRuns, Seed: g.firstSeed})
		var again []byte
		if err == nil {
			again, err = json.Marshal(res.Document())
		}
		ok := err == nil && bytes.Equal(again, g.firstDoc)
		t.check("paper-grid rerun", ok, fmt.Sprintf("seed %d rerun byte-identical (%d bytes)", g.firstSeed, len(g.firstDoc)))
	}
	return t, peakRSS(os.Getpid())
}

// evaluate runs one evaluate sweep through the spec layer and waits for
// its result.
func evaluate(ctx context.Context, tr *tracer, parent int32, es spec.EvaluateSpec) (*spec.Result, error) {
	id := tr.begin("spec.Run", parent)
	defer tr.end(id)
	exec, err := spec.Run(ctx, spec.ForEvaluate(es))
	if err != nil {
		return nil, err
	}
	return exec.Result()
}

// contenders returns Σ k·repsUsed over a sweep's cells: the contenders
// the sweep resolved.
func contenders(doc *spec.EvaluateResult) float64 {
	var n float64
	for _, s := range doc.Series {
		for _, c := range s.Cells {
			n += float64(c.K) * float64(c.RepsUsed)
		}
	}
	return n
}

// theoremBounds checks the k=10⁵ ratios against the bounds the engine
// tests assert: One-Fail Adaptive within 2(δ+1)k + 40·log²k slots
// (Theorem 1) and Exp Back-on/Back-off within 4(1+1/δ)k (Theorem 2).
func theoremBounds(doc *spec.EvaluateResult) error {
	logK := math.Log2(gridTopK)
	bounds := map[string]float64{
		"One-Fail Adaptive":    2*(core.DefaultOFADelta+1) + 40*logK*logK/gridTopK,
		"Exp Back-on/Back-off": 4 * (1 + 1/core.DefaultEBBDelta),
	}
	seen := 0
	for _, s := range doc.Series {
		bound, ok := bounds[s.System]
		if !ok {
			continue
		}
		for _, c := range s.Cells {
			if c.K != gridTopK {
				continue
			}
			seen++
			if !(c.Ratio > 0 && c.Ratio <= bound) {
				return fmt.Errorf("%s ratio %.4f at k=%d outside (0, %.4f]", s.System, c.Ratio, c.K, bound)
			}
		}
	}
	if seen != len(bounds) {
		return fmt.Errorf("found %d of %d bounded k=%d cells", seen, len(bounds), gridTopK)
	}
	return nil
}
