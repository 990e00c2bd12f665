package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/kernel"
	"repro/internal/montecarlo"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/throughput"
)

// The ladder's canonical job: One-Fail Adaptive at k=10⁵ over
// ladderRuns fixed seeds, entered at each layer boundary with the
// parallelism the upper layers use. Every row simulates byte-identical
// runs — the streams are the ones harness.Sweep derives — so the gap
// between adjacent rows is the cost of the layer between them.
const (
	ladderK    = 100_000
	ladderRuns = 4
	ladderReps = 5
	// layerReps repeats each micro-measurement; the median is reported.
	layerReps = 5
)

// runLayers times the calls into each layer's public functions and
// returns the per-layer metrics that the workloads themselves do not
// yield.
func runLayers(ctx context.Context, e *env) (map[string]value, tally, error) {
	out := map[string]value{}
	var t tally
	root := e.tr.begin("bench.layers", 0)
	defer e.tr.end(root)
	src := newSource(e.seed, "layers")

	out["rng.uint64_ns"] = uint64NS()
	r := rng.New(src.seed())
	out["rng.geometric_ns"] = nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += r.Geometric(0.05)
		}
	})
	out["rng.binomial_ns"] = nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(r.Binomial(1000, 0.05))
		}
	})

	fair := func(newCtrl func() (protocol.Controller, error)) (value, error) {
		var err error
		v := nsPerOp(ladderK, func(int) {
			ctrl, cerr := newCtrl()
			if cerr != nil {
				err = cerr
				return
			}
			sc, ok := ctrl.(protocol.SkipController)
			if !ok {
				err = fmt.Errorf("%T is not a skip controller", ctrl)
				return
			}
			id := e.tr.begin("kernel.FairRun", root)
			_, rerr := kernel.FairRun(ladderK, sc, rng.New(src.seed()), engine.DefaultMaxSlots)
			e.tr.end(id)
			if rerr != nil {
				err = rerr
			}
		})
		return v, err
	}
	var err error
	if out["kernel.fair_ofa_ns_per_contender"], err = fair(newOFA); err != nil {
		return out, t, err
	}
	if out["kernel.fair_lfa_ns_per_contender"], err = fair(func() (protocol.Controller, error) {
		return baseline.NewLogFailsAdaptive(1/(float64(ladderK)+1), 0.5)
	}); err != nil {
		return out, t, err
	}
	var runner engine.WindowRunner
	out["kernel.window_ebb_ns_per_contender"] = nsPerOp(ladderK, func(int) {
		sched, serr := core.NewExpBackonBackoff(core.DefaultEBBDelta)
		if serr == nil {
			id := e.tr.begin("engine.WindowRunner.Run", root)
			_, serr = runner.Run(ladderK, sched, rng.New(src.seed()), 0)
			e.tr.end(id)
		}
		if serr != nil {
			err = serr
		}
	})
	if err != nil {
		return out, t, err
	}
	out["kernel.calendar_ns_per_event"] = calendarNS(src.seed())

	ladder, err := runLadder(ctx, e, root, src, &t)
	for k, v := range ladder {
		out[k] = v
	}
	if err != nil {
		return out, t, err
	}
	drivers, err := driverLayers(ctx, e, root, src)
	for k, v := range drivers {
		out[k] = v
	}
	if err != nil {
		return out, t, err
	}
	serving, err := servingLayers(ctx, e, root, src)
	for k, v := range serving {
		out[k] = v
	}
	return out, t, err
}

// sink keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sink uint64

// nsPerOp runs fn(n) layerReps times and returns the median time per
// operation in nanoseconds, fn doing n operations per call.
func nsPerOp(n int, fn func(n int)) value {
	per := make([]float64, layerReps)
	for i := range per {
		t := time.Now()
		fn(n)
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return value{v: median(per), n: layerReps, note: fmt.Sprintf("median of %d × %d ops", layerReps, n)}
}

// uint64NS is the machine calibration: the raw generator's cost.
func uint64NS() value {
	r := rng.New(1)
	return nsPerOp(2_000_000, func(n int) {
		for i := 0; i < n; i++ {
			sink += r.Uint64()
		}
	})
}

func newOFA() (protocol.Controller, error) { return core.NewOneFailAdaptive(core.DefaultOFADelta) }

// calendarNS is a hold model on kernel.Calendar: 10⁴ stations, each
// popped event rescheduled up to 4096 slots ahead.
func calendarNS(seed uint64) value {
	const stations, span, events = 10_000, 4096, 1_000_000
	return nsPerOp(events, func(n int) {
		r := rng.New(seed)
		cal := kernel.NewCalendar()
		for i := 0; i < stations; i++ {
			cal.Schedule(1+r.Uint64n(span), int32(i))
		}
		buf := make([]int32, 0, 64)
		for done := 0; done < n; {
			slot, ids := cal.PopGroup(buf)
			buf = ids
			for _, id := range ids {
				cal.Schedule(slot+1+r.Uint64n(span), id)
				done++
			}
		}
	})
}

// fanOut runs task(run) for runs 0..n-1 over procs goroutines, the
// way harness.Sweep's pool does, and returns the first error.
func fanOut(procs, n int, task func(run int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				if err := task(run); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for run := 0; run < n; run++ {
		next <- run
	}
	close(next)
	wg.Wait()
	return first
}

// runLadder measures the canonical job at every layer boundary:
// kernel.FairRun, engine.FairRun, the registry System.Run, the
// harness sweep pool, spec.Run, the in-process HTTP handler (fresh key,
// waited to done) and macsimd over loopback. Each rep uses one fresh
// seed for every row, and every row must report the same total slots.
func runLadder(ctx context.Context, e *env, root int32, src *source, t *tally) (map[string]value, error) {
	sys, err := harness.SystemByName("one-fail")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: e.procs})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	d, err := startDaemon(ctx, e)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	stream := func(seed uint64, run int) *rng.Rand {
		return rng.NewStream(seed, sys.Name(), fmt.Sprint(ladderK), fmt.Sprint(run))
	}
	// perRun collects one row's slots per run.
	perRun := func(seed uint64, fn func(run int) (uint64, error)) (uint64, error) {
		slots := make([]uint64, ladderRuns)
		err := fanOut(e.procs, ladderRuns, func(run int) error {
			n, err := fn(run)
			slots[run] = n
			return err
		})
		var total uint64
		for _, n := range slots {
			total += n
		}
		return total, err
	}
	evalBody := func(seed uint64) string {
		return fmt.Sprintf(`{"protocols":["one-fail"],"ks":[%d],"runs":%d,"seed":%d}`, ladderK, ladderRuns, seed)
	}
	rows := []struct {
		name string
		run  func(seed uint64) (uint64, error)
	}{
		{"ladder.kernel_ms", func(seed uint64) (uint64, error) {
			return perRun(seed, func(run int) (uint64, error) {
				ctrl, err := core.NewOneFailAdaptive(core.DefaultOFADelta)
				if err != nil {
					return 0, err
				}
				return kernel.FairRun(ladderK, ctrl, stream(seed, run), engine.DefaultMaxSlots)
			})
		}},
		{"ladder.engine_ms", func(seed uint64) (uint64, error) {
			return perRun(seed, func(run int) (uint64, error) {
				ctrl, err := core.NewOneFailAdaptive(core.DefaultOFADelta)
				if err != nil {
					return 0, err
				}
				return engine.FairRun(ladderK, ctrl, stream(seed, run), 0)
			})
		}},
		{"ladder.harness_system_ms", func(seed uint64) (uint64, error) {
			return perRun(seed, func(run int) (uint64, error) { return sys.Run(ladderK, stream(seed, run)) })
		}},
		{"ladder.harness_sweep_ms", func(seed uint64) (uint64, error) {
			res, err := harness.Sweep{Ks: []int{ladderK}, Runs: ladderRuns, Seed: seed}.RunContext(ctx, []harness.System{sys})
			if err != nil {
				return 0, err
			}
			steps := &res[0].Cells[0].Steps
			return uint64(steps.Mean()*float64(steps.N()) + 0.5), nil
		}},
		{"ladder.spec_run_ms", func(seed uint64) (uint64, error) {
			es, err := spec.Decode(spec.KindEvaluate, []byte(evalBody(seed)))
			if err != nil {
				return 0, err
			}
			exec, err := spec.Run(ctx, es)
			if err != nil {
				return 0, err
			}
			res, err := exec.Result()
			if err != nil {
				return 0, err
			}
			return evalSlots(res.Evaluate), nil
		}},
		{"ladder.server_handler_ms", func(seed uint64) (uint64, error) {
			return handlerRun(handler, evalBody(seed))
		}},
		{"ladder.wire_ms", func(seed uint64) (uint64, error) {
			v, err := d.run(ctx, "evaluate", evalBody(seed))
			if err != nil {
				return 0, err
			}
			return docSlots(v.Result)
		}},
	}

	// Rep 0 warms every row and is not timed.
	times := make([][]float64, len(rows))
	agree, detail := true, fmt.Sprintf("%d rows × %d seeds simulated identical slots", len(rows), ladderReps+1)
	for rep := 0; rep <= ladderReps; rep++ {
		seed := src.seed()
		// Without a spin the first row of every rep ran up to 2× slower
		// than the identical second row: the wire row before it leaves
		// this process idle.
		spinCPUs(e.procs)
		var want uint64
		for i, row := range rows {
			id := e.tr.begin(row.name, root)
			start := time.Now()
			slots, err := row.run(seed)
			if rep > 0 {
				times[i] = append(times[i], ms(time.Since(start)))
			}
			e.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", row.name, err)
			}
			if i == 0 {
				want = slots
			} else if slots != want {
				agree = false
				detail = fmt.Sprintf("seed %d: %s simulated %d slots, kernel %d", seed, row.name, slots, want)
			}
		}
	}
	t.check("ladder rows agree", agree, detail)
	out := map[string]value{}
	for i, row := range rows {
		out[row.name] = value{v: median(times[i]), n: ladderReps, note: fmt.Sprintf("one-fail k=%d × %d runs", ladderK, ladderRuns)}
	}
	return out, nil
}

// evalSlots returns Σ meanSlots·repsUsed over an evaluate document.
func evalSlots(doc *spec.EvaluateResult) uint64 {
	var total float64
	for _, s := range doc.Series {
		for _, c := range s.Cells {
			total += c.MeanSlots * float64(c.RepsUsed)
		}
	}
	return uint64(total + 0.5)
}

func docSlots(raw []byte) (uint64, error) {
	var doc spec.EvaluateResult
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, err
	}
	return evalSlots(&doc), nil
}

// handlerRun submits an evaluate body to the in-process handler and
// follows the job's stream until it is done.
func handlerRun(h http.Handler, body string) (uint64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body)))
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return 0, fmt.Errorf("handler submit: status %d: %w", rec.Code, err)
	}
	if !v.terminal() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID+"/stream", nil))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return 0, err
		}
	}
	if v.Status != "done" {
		return 0, fmt.Errorf("handler job %s %s: %s", v.ID, v.Status, v.Error)
	}
	return docSlots(v.Result)
}

// driverLayers measures the repetition drivers and dynamic engines.
func driverLayers(ctx context.Context, e *env, root int32, src *source) (map[string]value, error) {
	out := map[string]value{}

	// harness: serial Σ System.Run against the sweep pool, same grid.
	systems := harness.PaperSystems()
	ks := harness.PaperKs(gridMaxExp - 1)
	var speedups []float64
	for rep := 0; rep < ladderReps; rep++ {
		seed := src.seed()
		start := time.Now()
		for _, sys := range systems {
			for _, k := range ks {
				for run := 0; run < gridRuns; run++ {
					if _, err := sys.Run(k, rng.NewStream(seed, sys.Name(), fmt.Sprint(k), fmt.Sprint(run))); err != nil {
						return out, err
					}
				}
			}
		}
		serial := time.Since(start)
		start = time.Now()
		id := e.tr.begin("harness.Sweep.RunContext", root)
		_, err := harness.Sweep{Ks: ks, Runs: gridRuns, Seed: seed}.RunContext(ctx, systems)
		e.tr.end(id)
		if err != nil {
			return out, err
		}
		speedups = append(speedups, serial.Seconds()/time.Since(start).Seconds())
	}
	out["harness.sweep_speedup"] = value{v: median(speedups), n: len(speedups), note: "serial Σ System.Run ÷ Sweep wall"}

	// throughput: one worker against the default pool, same sweep.
	speedups = speedups[:0]
	for rep := 0; rep < ladderReps; rep++ {
		cfg := throughput.Config{Lambdas: windowLambdas, Messages: windowMessages / 2, Runs: 4, Seed: src.seed()}
		var walls [2]time.Duration
		for i, par := range []int{1, 0} {
			cfg.Parallelism = par
			start := time.Now()
			id := e.tr.begin("throughput.RunContext", root)
			_, err := throughput.RunContext(ctx, throughput.WindowedProtocols(), cfg)
			e.tr.end(id)
			if err != nil {
				return out, err
			}
			walls[i] = time.Since(start)
		}
		speedups = append(speedups, walls[0].Seconds()/walls[1].Seconds())
	}
	out["throughput.sweep_speedup"] = value{v: median(speedups), n: len(speedups), note: "1 worker ÷ default pool wall"}

	// montecarlo: the driver's cost per replication around a trivial
	// task, run to maxReps (the target is unreachable).
	const reps = 20_000
	var mcErr error
	out["montecarlo.us_per_rep"] = nsPerOp(reps, func(n int) {
		prec := montecarlo.Precision{Epsilon: 1e-12, Confidence: 0.95, MinReps: n, MaxReps: n}
		id := e.tr.begin("montecarlo.Run", root)
		_, err := montecarlo.Run(ctx, prec, e.procs, func(rep int) (float64, error) { return float64(rep % 7), nil })
		e.tr.end(id)
		if err != nil {
			mcErr = err
		}
	})
	out["montecarlo.us_per_rep"] = scale(out["montecarlo.us_per_rep"], 1e-3)
	if mcErr != nil {
		return out, mcErr
	}

	// arena: wall per execution of the reduced arena.
	var arenaMS []float64
	for rep := 0; rep < ladderReps; rep++ {
		start := time.Now()
		runs, err := arenaRound(ctx, e.tr, root, src.seed())
		if err != nil {
			return out, err
		}
		arenaMS = append(arenaMS, ms(time.Since(start))/runs)
	}
	out["arena.run_ms"] = value{v: median(arenaMS), n: len(arenaMS), note: "reduced arena wall ÷ executions"}

	// dynamic engines, one execution each.
	const windowN, fairN = 20_000, 1_000
	var dynErr error
	out["dynamic.window_event_ns_per_msg"] = nsPerOp(windowN, func(n int) {
		r := rng.New(src.seed())
		w, err := dynamic.PoissonArrivals(n, 0.1, r)
		if err == nil {
			id := e.tr.begin("dynamic.RunWindowEvent", root)
			_, err = dynamic.RunWindowEvent(w, func() (protocol.Schedule, error) {
				return core.NewExpBackonBackoff(core.DefaultEBBDelta)
			}, r)
			e.tr.end(id)
		}
		if err != nil {
			dynErr = err
		}
	})
	out["dynamic.fair_ns_per_msg"] = nsPerOp(fairN, func(n int) {
		r := rng.New(src.seed())
		w, err := dynamic.PoissonArrivals(n, 0.05, r)
		if err == nil {
			id := e.tr.begin("dynamic.RunFair", root)
			_, err = dynamic.RunFair(w, newOFA, r, dynamic.WithClock(dynamic.ClockGlobal))
			e.tr.end(id)
		}
		if err != nil {
			dynErr = err
		}
	})
	if dynErr != nil {
		return out, dynErr
	}

	// session: one bounded session; its dropped count must stay 0.
	var perWindow []float64
	for rep := 0; rep < ladderReps; rep++ {
		start := time.Now()
		slots, err := sessionRun(ctx, e.tr, root, src.seed())
		if err != nil {
			out["session.dropped_windows"] = value{v: 1, n: rep + 1, note: err.Error()}
			return out, err
		}
		perWindow = append(perWindow, float64(time.Since(start).Nanoseconds())/(slots/float64(sessionWindow)))
	}
	out["session.ns_per_window"] = value{v: median(perWindow), n: len(perWindow)}
	out["session.dropped_windows"] = value{v: 0, n: len(perWindow), note: "sessions with every window delivered"}
	return out, nil
}

// servingLayers measures the spec, server and store layers outside the
// workloads.
func servingLayers(ctx context.Context, e *env, root int32, src *source) (map[string]value, error) {
	out := map[string]value{}
	body := []byte(hitBody(e.seed))
	const n = 2_000

	specs := make([]spec.ExperimentSpec, n)
	var err error
	out["spec.decode_us"] = nsPerOp(n, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			specs[i], err = spec.Decode(spec.KindEvaluate, body)
		}
	})
	if err != nil {
		return out, err
	}
	out["spec.validate_us"] = nsPerOp(n, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			// Validate normalizes in place; a fresh copy keeps every
			// call doing the full work.
			es := specs[i]
			ev := *es.Evaluate
			ev.Ks = append([]int(nil), ev.Ks...)
			es.Evaluate = &ev
			err = es.Validate(spec.Limits{})
		}
	})
	if err != nil {
		return out, err
	}
	es := specs[0]
	if err := es.Validate(spec.Limits{}); err != nil {
		return out, err
	}
	out["spec.hash_us"] = nsPerOp(n, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = es.CanonicalKey()
		}
	})
	if err != nil {
		return out, err
	}
	out["spec.dispatch_us"] = nsPerOp(200, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			var exec *spec.Execution
			exec, err = spec.Run(ctx, spec.ForSolve(spec.SolveSpec{Protocol: spec.ProtocolSpec{Name: "one-fail"}, K: 10, Seed: src.seed()}))
			if err == nil {
				_, err = exec.Result()
			}
		}
	})
	if err != nil {
		return out, err
	}
	exec, err := spec.Run(ctx, es)
	if err != nil {
		return out, err
	}
	res, err := exec.Result()
	if err != nil {
		return out, err
	}
	out["spec.encode_us"] = nsPerOp(n, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = json.Marshal(res.Document())
		}
	})
	if err != nil {
		return out, err
	}
	for _, name := range []string{"spec.decode_us", "spec.validate_us", "spec.hash_us", "spec.dispatch_us", "spec.encode_us"} {
		out[name] = scale(out[name], 1e-3)
	}

	// The in-process handler's hit path.
	srv, err := server.New(server.Config{Workers: e.procs})
	if err != nil {
		return out, err
	}
	defer srv.Close()
	h := srv.Handler()
	if _, err := handlerRun(h, string(body)); err != nil {
		return out, err
	}
	out["server.handler_hit_us"] = scale(nsPerOp(n, func(n int) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(string(body))))
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("handler hit: status %d", rec.Code)
			}
		}
	}), 1e-3)
	if err != nil {
		return out, err
	}

	// The file store's durable writes.
	dir, err := os.MkdirTemp(e.workDir, "store-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenFile(dir)
	if err != nil {
		return out, err
	}
	doc, err := json.Marshal(res.Document())
	if err != nil {
		return out, err
	}
	const writes = 20
	seq := 0
	out["store.put_job_ms"] = scale(nsPerOp(writes, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			seq++
			id := e.tr.begin("store.PutJob", root)
			err = st.PutJob(store.JobRecord{ID: fmt.Sprintf("bench-%d", seq), Kind: "evaluate", Key: fmt.Sprintf("%064x", seq),
				Params: body, Status: store.StatusQueued, Created: time.Now()})
			e.tr.end(id)
		}
	}), 1e-6)
	if err != nil {
		return out, err
	}
	out["store.put_result_ms"] = scale(nsPerOp(writes, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			seq++
			id := e.tr.begin("store.PutResult", root)
			err = st.PutResult(fmt.Sprintf("%064x", seq), doc)
			e.tr.end(id)
		}
	}), 1e-6)
	return out, err
}

// scale converts a value's unit (ns → µs is 1e-3).
func scale(v value, f float64) value {
	v.v *= f
	return v
}
