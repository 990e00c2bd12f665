// Command macbench is the repository's benchmark: one command that
// runs a named workload, prints every end-to-end metric with its unit
// and sample count, checks the program's outputs, and counts failed
// operations against attempted ones. With --trace 1 it also times the
// calls into each layer's public functions and prints the per-layer
// metrics instead. METHODOLOGY.md explains the workloads, the layer
// ladder and what each metric should move.
//
// Run it from the repository root through the launcher, which builds
// this program and macsimd first:
//
//	bash macbench/run.sh --workload paper-grid --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload needs from the run.
type env struct {
	seed    uint64
	procs   int    // nproc: the generator's thread and connection budget
	macsimd string // the daemon binary
	workDir string // scratch space inside the checkout
	tr      *tracer
	calib   []float64 // reference loads per second, one before each slice
}

// phaseOut is what a path's slices yielded since it was last
// collected.
type phaseOut struct {
	tally
	metrics map[string]value
	shares  map[string]value // server shares from /metrics deltas
	cost    float64          // time per unit of work, for the trace overhead
}

func newPhaseOut() phaseOut { return phaseOut{metrics: map[string]value{}} }

// path is one of the four measured paths. A run sets every path up,
// measures them in turns — a slice of each per cycle — and closes
// them at the end, so each path samples the whole run rather than one
// stretch of it: the reference machine's speed wanders on a scale of
// seconds, and a path measured in one block caught a different
// stretch in every run (METHODOLOGY.md).
type path interface {
	// setup prepares the path reps times (the last preparation stays)
	// and returns the seconds each took.
	setup(ctx context.Context, e *env, reps int) ([]float64, error)
	// slice measures the path for about budget and returns the time it
	// took, to be charged against the path's share of the run.
	slice(ctx context.Context, e *env, budget time.Duration) time.Duration
	// collect returns what the slices since the last collect measured
	// and starts afresh.
	collect(ctx context.Context, e *env) phaseOut
	// close makes the end-of-run checks, releases the path's resources
	// and returns the peak resident set of the path's process in MiB.
	close(ctx context.Context, e *env) (tally, float64)
}

// workload is one of the four measured paths with its share of
// --seconds. Every run measures all four: BENCHMARK.json requires
// every end-to-end metric from every run. The workload named by
// --workload is the focus: it sets up focusSetupReps times, and
// setup_s and peak_rss_mb describe its set-up and its process.
type workload struct {
	name    string
	share   float64 // of --seconds
	newPath func(e *env) path
}

// The shares follow the samples each path needs: the dynamic-engines
// parts take a few hundred milliseconds a round each, and the
// serve-miss median needs thousands of open-loop jobs.
var workloads = []workload{
	{"paper-grid", 0.24, newGridPath},
	{"dynamic-engines", 0.32, newEnginesPath},
	{"serve-hit", 0.16, newHitPath},
	{"serve-miss", 0.28, newMissPath},
}

// focusSetupReps is how often the focus workload sets up; setup_s is
// the median.
const focusSetupReps = 5

// cycle is the length of one turn over every path.
const cycle = 5 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	macsimd  string
	workDir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to focus: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 50, "measuring time of the run, shared among the workloads")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.macsimd, "macsimd", filepath.Join(".bench_build", "bin", "macsimd"), "macsimd binary")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "run"), "scratch directory")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macbench:", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "macbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// run validates the options, measures every workload and assembles the
// report. Errors are returned only for bad options or an unusable
// environment; a workload that breaks mid-run is a failed check.
func run(ctx context.Context, o options) (*report, error) {
	focus := -1
	for i, w := range workloads {
		if w.name == o.workload {
			focus = i
		}
	}
	switch {
	case focus < 0:
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case !(o.seconds > 0):
		return nil, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if _, err := os.Stat(o.macsimd); err != nil {
		return nil, fmt.Errorf("macsimd binary: %w", err)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: o.seed, procs: runtime.NumCPU(), macsimd: o.macsimd, workDir: o.workDir}
	traced := o.trace == 1
	rep := &report{metrics: map[string]value{}, emit: endToEnd}
	if traced {
		rep.emit = perLayer
	}
	rep.header = append(machineRecord(e.procs), fmt.Sprintf("# run workload=%s seed=%d seconds=%g trace=%d", o.workload, o.seed, o.seconds, o.trace))

	// Set every path up; a path that cannot set up is a failed check
	// and sits out the run.
	var paths []path
	var shares []float64
	live := make([]int, 0, len(workloads)) // workload index of each path
	for i, w := range workloads {
		p := w.newPath(e)
		reps := 1
		if i == focus {
			reps = focusSetupReps
		}
		spinCPUs(e.procs)
		setup, err := p.setup(ctx, e, reps)
		if err != nil {
			rep.check(w.name+" set-up", false, err.Error())
			continue
		}
		if i == focus {
			rep.metrics["setup_s"] = value{v: median(setup), n: len(setup), note: "median of set-ups"}
		}
		paths, shares, live = append(paths, p), append(shares, w.share), append(live, i)
	}
	collect := func() []phaseOut {
		outs := make([]phaseOut, len(paths))
		for j, p := range paths {
			outs[j] = p.collect(ctx, e)
			rep.tally.add(outs[j].tally)
		}
		return outs
	}

	dur := seconds(o.seconds)
	var outs []phaseOut
	if traced {
		// Half the time untraced, half traced: the focus's cost
		// difference is the tracing overhead.
		measure(ctx, e, paths, shares, dur/2)
		plain := collect()
		e.tr = newTracer()
		measure(ctx, e, paths, shares, dur/2)
		outs = collect()
		for j, i := range live {
			if i == focus {
				rep.metrics["trace.overhead_share"] = value{v: outs[j].cost/plain[j].cost - 1, n: 2, note: workloads[i].name + " cost per unit, traced vs untraced half"}
			}
		}
	} else {
		measure(ctx, e, paths, shares, dur)
		outs = collect()
	}

	// Shares describe the focus's daemon, or the serve-miss daemon when
	// the focus runs in-process.
	var missShares, focusShares map[string]value
	for j, i := range live {
		for k, v := range outs[j].metrics {
			rep.metrics[k] = v
		}
		if workloads[i].name == "serve-miss" {
			missShares = outs[j].shares
		}
		if i == focus {
			focusShares = outs[j].shares
		}
		checks, rss := paths[j].close(ctx, e)
		rep.tally.add(checks)
		if i == focus {
			rep.metrics["peak_rss_mb"] = value{v: rss, n: 1}
		}
	}
	scaleToReference(rep.metrics, e.calib)
	if !traced {
		return rep, nil
	}
	if focusShares == nil {
		focusShares = missShares
	}
	for k, v := range focusShares {
		rep.metrics[k] = v
	}
	layers, t, err := runLayers(ctx, e)
	rep.tally.add(t)
	if err != nil {
		rep.check("layers", false, err.Error())
	}
	for k, v := range layers {
		rep.metrics[k] = v
	}
	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	var sb strings.Builder
	if err := e.tr.dump(path, &sb); err != nil {
		return nil, err
	}
	rep.header = append(rep.header, strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")...)
	return rep, nil
}

// measure runs the paths in turns for dur: ⌈dur/cycle⌉ cycles, and in
// cycle c a path runs until its time used reaches c shares of a cycle,
// so a slice that overran its budget shortens the path's next one.
func measure(ctx context.Context, e *env, paths []path, shares []float64, dur time.Duration) {
	cycles := max(1, int(math.Ceil(float64(dur)/float64(cycle))))
	length := float64(dur) / float64(cycles)
	used := make([]time.Duration, len(paths))
	spinCPUs(e.procs)
	for c := 1; c <= cycles && ctx.Err() == nil; c++ {
		for i, p := range paths {
			if budget := time.Duration(float64(c)*shares[i]*length) - used[i]; budget > 0 {
				// The reference load runs on a collected heap, so the
				// last slice's garbage does not slow it.
				runtime.GC()
				e.calib = append(e.calib, calibrate(e.procs))
				used[i] += p.slice(ctx, e, budget)
			}
		}
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// spinDuration is how long spinCPUs runs before each set-up and timed
// section.
const spinDuration = 300 * time.Millisecond

// spinCPUs keeps procs CPUs busy for spinDuration. On a virtual machine
// an idle vCPU is descheduled by its host: on the reference machine the
// first ~0.8s of two-thread load after idling ran at half speed.
// Spinning first keeps that ramp out of the measurement.
func spinCPUs(procs int) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(spinDuration)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for time.Now().Before(deadline) {
				for j := 0; j < 10_000; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			if x == 0 { // never: keeps the loop from being optimized away
				fmt.Fprintln(os.Stderr, x)
			}
		}()
	}
	wg.Wait()
}

// machineRecord describes the machine, so runs are compared only with
// runs from the same one.
func machineRecord(procs int) []string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	u := uint64NS()
	return []string{fmt.Sprintf("# machine cpu=%q nproc=%d go=%s gomaxprocs.generator=%d gomaxprocs.daemon=%d rng.uint64_ns=%.4f",
		cpu, procs, runtime.Version(), runtime.GOMAXPROCS(0), procs, u.v)}
}

// peakRSS reads a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(v, &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
