package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// hitPath is the serve-hit workload: a closed loop over nproc
// keep-alive connections to a macsimd process with the in-memory store,
// every request the same warmed evaluate body, so every request is a
// cache hit: decode → validate → hash → cache → splice, no simulation.
// Every body must be byte-identical to the first hit's.
type hitPath struct {
	body       string
	d          *daemon
	ref        []byte
	before     map[string]float64 // /metrics at the last collect
	lat        []float64          // ms per request; +Inf for a failed one
	rates      []float64          // completions per second, one per whole window
	wall       time.Duration
	mismatches int
	requests   int
	tally
}

func newHitPath(e *env) path { return &hitPath{body: hitBody(e.seed)} }

// setup starts the daemon and warms it: daemon start to healthy, plus
// the warming miss and the first hit, whose body is the reference.
func (h *hitPath) setup(ctx context.Context, e *env, reps int) ([]float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		if h.d != nil {
			if _, err := h.d.stop(); err != nil {
				return nil, err
			}
			h.d = nil
		}
		t := time.Now()
		d, err := startDaemon(ctx, e)
		if err != nil {
			return nil, err
		}
		h.d = d
		if h.ref, err = warmHit(ctx, d, h.body); err != nil {
			_, _ = d.stop()
			h.d = nil
			return nil, fmt.Errorf("serve-hit warm-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	var err error
	if h.before, err = h.d.counters(ctx); err != nil {
		_, _ = h.d.stop()
		h.d = nil
		return nil, err
	}
	return times, nil
}

// slice runs the closed loop for budget.
func (h *hitPath) slice(ctx context.Context, e *env, budget time.Duration) time.Duration {
	root := e.tr.begin("bench.serve-hit", 0)
	defer e.tr.end(root)
	var (
		mu   sync.Mutex
		done []float64 // completion time (s since the slice started) per request
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(budget)
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine, finished []float64
			var t tally
			bad := 0
			for time.Now().Before(deadline) && ctx.Err() == nil {
				id := e.tr.begin("client.POST /v1/evaluate", root)
				t0 := time.Now()
				status, data, err := h.d.do(ctx, http.MethodPost, "/v1/evaluate", h.body)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				e.tr.end(id)
				ok := err == nil && status == http.StatusOK
				if ok && !bytes.Equal(data, h.ref) {
					ok = false
					bad++
				}
				if !ok {
					ms = math.Inf(1)
				}
				t.op(ok)
				mine = append(mine, ms)
				if ok {
					finished = append(finished, time.Since(start).Seconds())
				}
			}
			mu.Lock()
			h.lat = append(h.lat, mine...)
			done = append(done, finished...)
			h.tally.add(t)
			h.mismatches += bad
			h.requests += len(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	h.wall += wall
	h.rates = append(h.rates, windowRates(done, wall)...)
	return wall
}

func (h *hitPath) collect(ctx context.Context, e *env) phaseOut {
	out := newPhaseOut()
	out.tally, h.tally = h.tally, tally{}
	if after, err := h.d.counters(ctx); err != nil {
		out.check("serve-hit metrics", false, err.Error())
	} else {
		out.shares = serverShares(h.before, after)
		h.before = after
	}
	pct, ok := percentiles(h.lat, float64(h.wall.Milliseconds()), 0.5, 0.99)
	if !ok {
		out.check("serve-hit percentiles", false, "too few samples for p50/p99")
	}
	out.metrics["hit_rps"] = value{v: median(h.rates), n: len(h.lat), note: fmt.Sprintf("%d connections, closed loop; median of %d windows", e.procs, len(h.rates))}
	out.metrics["hit_p50_ms"], out.metrics["hit_p99_ms"] = pct[0], pct[1]
	out.cost = 1 / out.metrics["hit_rps"].v
	h.lat, h.rates, h.wall = nil, nil, 0
	return out
}

// close checks every body of the run and stops the daemon.
func (h *hitPath) close(ctx context.Context, e *env) (tally, float64) {
	var t tally
	t.check("serve-hit bodies", h.mismatches == 0,
		fmt.Sprintf("%d of %d bodies differ from the warmed document", h.mismatches, h.requests))
	rss, err := h.d.stop()
	if err != nil {
		t.check("serve-hit daemon", false, err.Error())
	}
	return t, rss
}

// rateWindow is the interval serve-hit's request rate is counted over;
// the reported rate is the median over windows, so a host stall of a
// few hundred milliseconds moves one window, not the result.
const rateWindow = 250 * time.Millisecond

// windowRates returns the completion rate in each whole window of a
// slice of length wall, given the completion times (seconds since the
// slice started).
func windowRates(times []float64, wall time.Duration) []float64 {
	counts := make([]float64, int(wall/rateWindow))
	for _, t := range times {
		if i := int(t / rateWindow.Seconds()); i < len(counts) {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= rateWindow.Seconds()
	}
	return counts
}

// warmHit submits the body once (a miss), waits for the simulation,
// and returns the body of the first cache hit.
func warmHit(ctx context.Context, d *daemon, body string) ([]byte, error) {
	if _, err := d.run(ctx, "evaluate", body); err != nil {
		return nil, err
	}
	v, data, err := d.submit(ctx, "evaluate", body)
	if err != nil {
		return nil, err
	}
	if !v.Cached || v.Status != "done" {
		return nil, fmt.Errorf("second submit was not a cache hit (status %q, cached %v)", v.Status, v.Cached)
	}
	return data, nil
}
