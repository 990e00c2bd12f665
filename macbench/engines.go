package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/montecarlo"
	"repro/internal/protocol"
	"repro/internal/session"
	"repro/internal/spec"
	"repro/internal/throughput"
)

// Fixed dynamic-engines inputs. Each part takes a few hundred
// milliseconds on one core, so a run repeats every part several times
// and reports medians.
var (
	// (a) windowed λ-sweep on the calendar engine, adaptive precision.
	windowLambdas  = []float64{0.05, 0.1, 0.2}
	windowMessages = 2000
	windowPrec     = montecarlo.Precision{Epsilon: 0.01, Confidence: 0.95}
	// (b) One-Fail Adaptive λ-sweep on the per-slot path: sim.Run
	// rescans every pending station each slot, so n stays small. Six
	// runs per load keep both workers busy to the end of a round; with
	// two, one round's rate moved by up to 50% between runs.
	fairLambdas  = []float64{0.05, 0.1, 0.2}
	fairMessages = 1000
	fairRuns     = 6
	// (c) reduced arena: every registered protocol over the default
	// herd/rho/jammed gauntlet.
	arenaMessages = 100
	arenaRuns     = 2
	// (d) one bounded, unpaced live session.
	sessionWindows = 40_000
	sessionWindow  = 64
)

// ofaProtocol is One-Fail Adaptive as the throughput driver runs it:
// per-slot fair stations on a global clock.
func ofaProtocol() throughput.Protocol {
	return throughput.Protocol{
		Name: "One-Fail Adaptive",
		NewController: func() (protocol.Controller, error) {
			return core.NewOneFailAdaptive(core.DefaultOFADelta)
		},
		Clock: dynamic.ClockGlobal,
	}
}

// enginePart is one of the four dynamic-engines inputs; run returns
// the units of work it did (messages, executions or slots).
type enginePart struct {
	metric string
	run    func(ctx context.Context, tr *tracer, parent int32, seed uint64) (float64, error)
}

// seed is the part's fixed simulation seed.
func (p enginePart) seed() uint64 { return newSource(0, "engines/"+p.metric).seed() }

var engineParts = []enginePart{
	{"window_msgs_per_s", windowSweep},
	{"fair_msgs_per_s", fairSweep},
	{"arena_runs_per_s", arenaRound},
	{"session_slots_per_s", sessionRun},
}

// enginesPath is the dynamic-engines workload: in-process, the four
// parts run one after another, round after round. The inputs are
// fixed: every round of a part simulates the same seed, whatever the
// workload seed, so the rounds repeat identical work and the median of
// the per-round rates measures the engines, not the luck of the draw
// (adaptive precision alone moves a seed's work by up to 2×).
// Each part's metric is the median of its per-round rates.
type enginesPath struct {
	rates [][]float64 // per part, one per round
	tally
}

func newEnginesPath(*env) path { return &enginesPath{rates: make([][]float64, len(engineParts))} }

// setup runs one round of every part.
func (g *enginesPath) setup(ctx context.Context, e *env, reps int) ([]float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		for _, p := range engineParts {
			if _, err := p.run(ctx, e.tr, 0, p.seed()); err != nil {
				return nil, fmt.Errorf("dynamic-engines warm-up %s: %w", p.metric, err)
			}
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}

// slice runs rounds until budget is spent; at least one.
func (g *enginesPath) slice(ctx context.Context, e *env, budget time.Duration) time.Duration {
	root := e.tr.begin("bench.dynamic-engines", 0)
	defer e.tr.end(root)
	start := time.Now()
	for time.Since(start) < budget && ctx.Err() == nil {
		for i, p := range engineParts {
			t := time.Now()
			work, err := p.run(ctx, e.tr, root, p.seed())
			elapsed := time.Since(t).Seconds()
			if err != nil {
				g.check(p.metric, false, err.Error())
				continue
			}
			g.op(true)
			g.rates[i] = append(g.rates[i], work/elapsed)
		}
	}
	return time.Since(start)
}

func (g *enginesPath) collect(ctx context.Context, e *env) phaseOut {
	out := newPhaseOut()
	out.tally, g.tally = g.tally, tally{}
	for i, p := range engineParts {
		out.metrics[p.metric] = value{v: median(g.rates[i]), n: len(g.rates[i]), note: "median of per-round rates"}
		// The trace-overhead cost is the summed time per unit of every
		// part, so no single part dominates it.
		out.cost += 1 / out.metrics[p.metric].v
		g.rates[i] = nil
	}
	return out
}

// close has nothing to release; the peak resident set is the
// benchmark process's.
func (g *enginesPath) close(context.Context, *env) (tally, float64) {
	return tally{}, peakRSS(os.Getpid())
}

// windowSweep is part (a): EBB, LLIB and BEB over three loads on
// dynamic.RunWindowEvent, replicated by the montecarlo stopping rule.
// Work is messages simulated: Σ repsUsed·messages.
func windowSweep(ctx context.Context, tr *tracer, parent int32, seed uint64) (float64, error) {
	id := tr.begin("throughput.RunContext", parent)
	defer tr.end(id)
	series, err := throughput.RunContext(ctx, throughput.WindowedProtocols(), throughput.Config{
		Lambdas: windowLambdas, Messages: windowMessages, Precision: windowPrec, Seed: seed,
	})
	return sweptMessages(series, windowMessages), err
}

// fairSweep is part (b): One-Fail Adaptive over three loads on the
// per-slot sim path.
func fairSweep(ctx context.Context, tr *tracer, parent int32, seed uint64) (float64, error) {
	id := tr.begin("throughput.RunContext", parent)
	defer tr.end(id)
	series, err := throughput.RunContext(ctx, []throughput.Protocol{ofaProtocol()}, throughput.Config{
		Lambdas: fairLambdas, Messages: fairMessages, Runs: fairRuns, Seed: seed,
	})
	return sweptMessages(series, fairMessages), err
}

func sweptMessages(series []throughput.Series, messages int) float64 {
	var n float64
	for _, s := range series {
		for _, p := range s.Points {
			n += float64(p.Runs * messages)
		}
	}
	return n
}

// arenaRound is part (c): work is protocol × scenario × run executions.
func arenaRound(ctx context.Context, tr *tracer, parent int32, seed uint64) (float64, error) {
	id := tr.begin("arena.RunContext", parent)
	defer tr.end(id)
	res, err := arena.RunContext(ctx, arena.Config{Messages: arenaMessages, Runs: arenaRuns, Seed: seed})
	if err != nil {
		return 0, err
	}
	var runs int
	for _, entry := range res.Ranking {
		for _, sc := range entry.Scenarios {
			runs += sc.Runs
		}
	}
	return float64(runs), nil
}

// sessionRun is part (d): a bounded, unpaced session drained to its
// end; work is windows × window slots. Its buffer holds every window,
// so a dropped window is a fault.
func sessionRun(ctx context.Context, tr *tracer, parent int32, seed uint64) (float64, error) {
	id := tr.begin("session.Open", parent)
	defer tr.end(id)
	s, err := session.Open(ctx, spec.SessionSpec{
		Seed: seed, Window: sessionWindow, MaxWindows: sessionWindows, Buffer: sessionWindows + 16,
	})
	if err != nil {
		return 0, err
	}
	for _, err := range s.Events() {
		if err != nil {
			return 0, err
		}
	}
	if err := s.Wait(); err != nil {
		return 0, err
	}
	if d := s.Dropped(); d != 0 || s.Windows() != sessionWindows {
		return 0, fmt.Errorf("session seed %d: %d of %d windows, %d dropped", seed, s.Windows(), sessionWindows, d)
	}
	return float64(s.Windows() * sessionWindow), nil
}
