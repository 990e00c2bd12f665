package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef describes one reported metric as BENCHMARK.json lists it:
// name, unit, direction and, for an end-to-end metric, the bound by
// which it may worsen. METHODOLOGY.md says what each one measures and
// which end-to-end metric each per-layer metric should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	scale              int // +1 a rate, -1 a time, scaled to the reference machine's speed
}

// endToEnd lists the metrics a user of the system sees. Every run
// reports all of them: each run measures every workload's path.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, scale: -1},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "grid_contenders_per_s", unit: "contenders/s", better: "higher", bound: 0.1, scale: 1},
	{name: "window_msgs_per_s", unit: "msgs/s", better: "higher", bound: 0.25, scale: 1},
	{name: "fair_msgs_per_s", unit: "msgs/s", better: "higher", bound: 0.25, scale: 1},
	{name: "arena_runs_per_s", unit: "runs/s", better: "higher", bound: 0.25, scale: 1},
	{name: "session_slots_per_s", unit: "slots/s", better: "higher", bound: 0.25, scale: 1},
	{name: "hit_rps", unit: "req/s", better: "higher", bound: 0.25, scale: 1},
	{name: "miss_p50_ms", unit: "ms", better: "lower", bound: 0.25, scale: -1},
}

// perLayer lists the traced run's metrics: one per layer boundary,
// plus the latency percentiles too unsteady to bound (METHODOLOGY.md).
var perLayer = []metricDef{
	{name: "rng.uint64_ns", unit: "ns", better: "lower"},
	{name: "rng.geometric_ns", unit: "ns", better: "lower"},
	{name: "rng.binomial_ns", unit: "ns", better: "lower"},
	{name: "kernel.fair_ofa_ns_per_contender", unit: "ns", better: "lower"},
	{name: "kernel.fair_lfa_ns_per_contender", unit: "ns", better: "lower"},
	{name: "kernel.window_ebb_ns_per_contender", unit: "ns", better: "lower"},
	{name: "kernel.calendar_ns_per_event", unit: "ns", better: "lower"},
	{name: "ladder.kernel_ms", unit: "ms", better: "lower"},
	{name: "ladder.engine_ms", unit: "ms", better: "lower"},
	{name: "ladder.harness_system_ms", unit: "ms", better: "lower"},
	{name: "ladder.harness_sweep_ms", unit: "ms", better: "lower"},
	{name: "ladder.spec_run_ms", unit: "ms", better: "lower"},
	{name: "ladder.server_handler_ms", unit: "ms", better: "lower"},
	{name: "ladder.wire_ms", unit: "ms", better: "lower"},
	{name: "harness.sweep_speedup", unit: "ratio", better: "higher"},
	{name: "throughput.sweep_speedup", unit: "ratio", better: "higher"},
	{name: "montecarlo.us_per_rep", unit: "us", better: "lower"},
	{name: "arena.run_ms", unit: "ms", better: "lower"},
	{name: "dynamic.window_event_ns_per_msg", unit: "ns", better: "lower"},
	{name: "dynamic.fair_ns_per_msg", unit: "ns", better: "lower"},
	{name: "session.ns_per_window", unit: "ns", better: "lower"},
	{name: "session.dropped_windows", unit: "count", better: "lower"},
	{name: "spec.decode_us", unit: "us", better: "lower"},
	{name: "spec.validate_us", unit: "us", better: "lower"},
	{name: "spec.hash_us", unit: "us", better: "lower"},
	{name: "spec.dispatch_us", unit: "us", better: "lower"},
	{name: "spec.encode_us", unit: "us", better: "lower"},
	{name: "server.handler_hit_us", unit: "us", better: "lower"},
	{name: "server.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.submit_ms_p99", unit: "ms", better: "lower"},
	{name: "server.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "server.queue_wait_ms_p99", unit: "ms", better: "lower"},
	{name: "server.run_ms_p50", unit: "ms", better: "lower"},
	{name: "server.run_ms_p99", unit: "ms", better: "lower"},
	{name: "server.hit_share", unit: "share", better: "higher"},
	{name: "server.rejected_share", unit: "share", better: "lower"},
	{name: "server.slots_per_job", unit: "slots", better: "lower"},
	{name: "store.put_job_ms", unit: "ms", better: "lower"},
	{name: "store.put_result_ms", unit: "ms", better: "lower"},
	{name: "hit_p50_ms", unit: "ms", better: "lower"},
	{name: "hit_p99_ms", unit: "ms", better: "lower"},
	{name: "miss_p95_ms", unit: "ms", better: "lower"},
	{name: "miss_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "calib.loads_per_s", unit: "1/s", better: "higher"},
}

// value is one measured metric: the number, and how many samples it
// summarizes.
type value struct {
	v    float64
	n    int
	note string
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts
// in place), the sample count, and how many samples lie strictly
// beyond the returned rank. +Inf entries stand for failed operations:
// they miss every latency limit.
func quantile(xs []float64, q float64) (v float64, n, beyond int) {
	n = len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = min(max(idx, 0), n-1)
	return xs[idx], n, n - 1 - idx
}

// median returns the median of xs (sorting it in place).
func median(xs []float64) float64 {
	v, _, _ := quantile(xs, 0.5)
	return v
}

// percentiles summarizes a latency sample at the quantiles qs. A
// quantile is resolved only when at least ten samples lie beyond it;
// an unresolved quantile, or one landing on a failed (+Inf) sample,
// reports ceiling — the phase's wall length, a limit every failure
// misses — flags it in the note, and makes ok false.
func percentiles(xs []float64, ceiling float64, qs ...float64) (out []value, ok bool) {
	ok = true
	for _, q := range qs {
		v, n, beyond := quantile(xs, q)
		pv := value{v: v, n: n, note: fmt.Sprintf("%d beyond", beyond)}
		switch {
		case n == 0 || beyond < 10:
			ok = false
			pv.v = ceiling
			pv.note = fmt.Sprintf("unresolved: %d samples, %d beyond", n, beyond)
		case math.IsInf(v, 1):
			pv.v = ceiling
			pv.note += ", lands on a failed request"
		}
		out = append(out, pv)
	}
	return out, ok
}

// check is one correctness check; a failed check counts as a failed
// operation.
type check struct {
	name   string
	ok     bool
	detail string
}

// tally counts attempted and failed operations and records checks.
type tally struct {
	attempted, failed int
	checks            []check
}

func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) check(name string, ok bool, detail string) {
	t.op(ok)
	t.checks = append(t.checks, check{name, ok, detail})
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.checks = append(t.checks, o.checks...)
}

// report is everything one run prints.
type report struct {
	tally
	header  []string
	metrics map[string]value
	emit    []metricDef // the metric set the JSON line carries
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable report — every metric the run
// measured, with its sample count — and then, as the last line, the
// JSON result with the emitted metric set. A metric the run failed to
// produce makes the run incorrect and is reported as 0.
func (r *report) write(w io.Writer) error {
	for _, h := range r.header {
		fmt.Fprintln(w, h)
	}
	correct := r.failed == 0
	emitted := make(map[string]bool, len(r.emit))
	for _, d := range r.emit {
		emitted[d.name] = true
	}
	out := result{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := r.metrics[d.name]
		valid := ok && !math.IsNaN(v.v) && !math.IsInf(v.v, 0)
		switch {
		case valid:
			note := ""
			if v.note != "" {
				note = "; " + v.note
			}
			fmt.Fprintf(w, "metric %-34s %14.6g %-13s (n=%d%s)\n", d.name, v.v, d.unit, v.n, note)
		case emitted[d.name]:
			fmt.Fprintf(w, "metric %-34s missing\n", d.name)
			correct = false
			v = value{}
		}
		if emitted[d.name] {
			out.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
		}
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "check %s %s %s\n", status, c.name, c.detail)
	}
	out.Correct = correct
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
