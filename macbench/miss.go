package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/spec"
)

// Serve-miss load: Poisson arrivals at one fixed rate, about half the
// capacity measured for this mix on the reference machine
// (METHODOLOGY.md).
const (
	missRate = 250.0 // submits per second
	// missPollDelay is how long after its 202 a job is first polled,
	// and between polls of an unfinished job.
	missPollDelay = 5 * time.Millisecond
	// Every missSampleEvery-th served document, up to missSamples, is
	// checked against spec.Run after the timed phase.
	missSampleEvery = 17
	missSamples     = 24
	// missWarm jobs warm each daemon before timing starts.
	missWarm = 16
	// missRamp is how long the open loop runs at its rate before the
	// measured interval starts: on the reference machine the slowest
	// jobs of an unramped run all arrived in its first half second,
	// while the fresh daemon's heap and the vCPUs came up to speed.
	// Ramp jobs are checked, but not timed.
	missRamp = 2 * time.Second
)

// missJob follows one open-loop submit from its due time to its
// terminal job view.
type missJob struct {
	seq      int
	measured bool // due after the ramp
	req      missRequest
	due      time.Time
	sent     time.Time // a sender picked it up
	accepted time.Time // the 202 arrived
	view     jobView
	err      error
}

// missPath is the serve-miss workload: open-loop Poisson submits of
// fresh-seed experiments to a macsimd process, so each misses the cache
// and goes through admission, scheduling, the pool, spec.Run, the
// kernel and encoding. Latency runs from each request's due time to its
// job's finished stamp. The daemon keeps its store in memory: with
// -data-dir the file store's fsync stalls on the reference machine
// moved the run-to-run p50 by 40%, more than any bound could absorb;
// the file store's writes are timed in the traced run instead
// (store.put_job_ms, store.put_result_ms).
type missPath struct {
	d       *daemon
	sched   *missSchedule
	seq     int                // requests sent so far
	ramped  bool               // the first slice's ramp is done
	before  map[string]float64 // /metrics at the last collect
	jobs    []*missJob         // since the last collect
	wall    time.Duration      // measured open-loop time since the last collect
	samples []*missJob         // served documents to check at the end
	tally
}

func newMissPath(e *env) path {
	return &missPath{sched: newMissSchedule(e.seed, "miss", missRate)}
}

// setup starts the daemon and warms it: daemon start to healthy, plus
// missWarm completed jobs.
func (m *missPath) setup(ctx context.Context, e *env, reps int) ([]float64, error) {
	warm := newMissSchedule(e.seed, "miss/warm", missRate)
	var times []float64
	for i := 0; i < reps; i++ {
		if m.d != nil {
			if _, err := m.d.stop(); err != nil {
				return nil, err
			}
			m.d = nil
		}
		t := time.Now()
		d, err := startDaemon(ctx, e)
		if err != nil {
			return nil, err
		}
		m.d = d
		for j := 0; j < missWarm; j++ {
			_, req := warm.next()
			if _, err := d.run(ctx, req.kind, req.body); err != nil {
				_, _ = d.stop()
				m.d = nil
				return nil, fmt.Errorf("serve-miss warm-up: %w", err)
			}
		}
		times = append(times, time.Since(t).Seconds())
	}
	var err error
	if m.before, err = m.d.counters(ctx); err != nil {
		_, _ = m.d.stop()
		m.d = nil
		return nil, err
	}
	return times, nil
}

// slice runs the open loop for budget and follows its jobs to their
// end. The run's first slice starts with an untimed ramp of missRamp,
// which is not charged to the path's share.
func (m *missPath) slice(ctx context.Context, e *env, budget time.Duration) time.Duration {
	root := e.tr.begin("bench.serve-miss", 0)
	defer e.tr.end(root)
	var ramp time.Duration
	if !m.ramped {
		ramp, m.ramped = missRamp, true
	}
	start := time.Now()
	jobs, wall := openLoop(ctx, e, m.d, root, m.sched, &m.seq, ramp, budget)
	m.jobs = append(m.jobs, jobs...)
	m.wall += wall
	return time.Since(start) - ramp
}

func (m *missPath) collect(ctx context.Context, e *env) phaseOut {
	out := newPhaseOut()
	out.tally, m.tally = m.tally, tally{}
	if after, err := m.d.counters(ctx); err != nil {
		out.check("serve-miss metrics", false, err.Error())
	} else {
		out.shares = serverShares(m.before, after)
		m.before = after
	}

	var lat, late, submit, queue, run []float64
	for _, j := range m.jobs {
		ok := j.err == nil && j.view.Status == "done"
		out.op(ok)
		if !j.measured {
			continue
		}
		late = append(late, ms(j.sent.Sub(j.due)))
		switch {
		case !ok:
			lat = append(lat, math.Inf(1))
			continue
		case j.view.Cached: // a seed collision, answered from the cache
			lat = append(lat, ms(j.accepted.Sub(j.due)))
			continue
		}
		lat = append(lat, ms(j.view.Finished.Sub(j.due)))
		submit = append(submit, ms(j.accepted.Sub(j.due)))
		if j.view.Started != nil {
			queue = append(queue, ms(j.view.Started.Sub(j.view.Created)))
			run = append(run, ms(j.view.Finished.Sub(*j.view.Started)))
		}
		if j.seq%missSampleEvery == 0 && len(m.samples) < missSamples {
			m.samples = append(m.samples, j)
		}
	}
	if out.failed > 0 {
		out.check("serve-miss jobs", false, fmt.Sprintf("%d of %d submits refused, failed or lost; first: %v", out.failed, len(m.jobs), firstErr(m.jobs)))
	}

	ceiling := float64(m.wall.Milliseconds())
	pct, ok := percentiles(lat, ceiling, 0.5, 0.95, 0.99)
	if !ok {
		out.check("serve-miss percentiles", false, "too few samples for p50/p95/p99")
	}
	out.metrics["miss_p50_ms"], out.metrics["miss_p95_ms"], out.metrics["miss_p99_ms"] = pct[0], pct[1], pct[2]
	for name, xs := range map[string][]float64{"server.submit_ms": submit, "server.queue_wait_ms": queue, "server.run_ms": run} {
		pct, _ := percentiles(xs, ceiling, 0.5, 0.99)
		out.metrics[name+"_p50"], out.metrics[name+"_p99"] = pct[0], pct[1]
	}
	latePct, _ := percentiles(late, ceiling, 0.99)
	out.metrics["gen.late_p99_ms"] = latePct[0]
	out.cost = out.metrics["miss_p50_ms"].v
	m.jobs, m.wall = nil, 0
	return out
}

// close stops the daemon, then checks the sampled served documents
// against spec.Run in this process.
func (m *missPath) close(ctx context.Context, e *env) (tally, float64) {
	var t tally
	rss, err := m.d.stop()
	if err != nil {
		t.check("serve-miss daemon", false, err.Error())
	}
	verifyMissSamples(ctx, e, 0, m.samples, &t)
	return t, rss
}

// openLoop sends the schedule's requests at their due times for ramp
// plus dur, marking those due after the ramp as measured, and follows
// every accepted job to a terminal view. seq numbers the requests
// across calls. nproc senders and one poller share nproc keep-alive
// connections; a request that finds every sender busy leaves late, and
// the lateness is recorded. It returns the jobs and the measured time.
func openLoop(ctx context.Context, e *env, d *daemon, root int32, sched *missSchedule, seq *int, ramp, dur time.Duration) ([]*missJob, time.Duration) {
	var (
		jobs   []*missJob
		toSend = make(chan *missJob) // unbuffered: busy senders make the dispatcher late
		// Sized beyond any run's submits, so a sender never waits on
		// the poller.
		accepted = make(chan *missJob, 1<<16)
		senders  sync.WaitGroup
	)
	for i := 0; i < e.procs; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for j := range toSend {
				j.sent = time.Now()
				id := e.tr.begin("client.POST /v1/"+j.req.kind, root)
				v, _, err := d.submit(ctx, j.req.kind, j.req.body)
				e.tr.end(id)
				j.accepted = time.Now()
				j.view, j.err = v, err
				if err == nil && !v.terminal() {
					accepted <- j
				}
			}
		}()
	}
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		pollJobs(ctx, e, d, root, accepted)
	}()

	due := time.Now()
	start := due.Add(ramp)
	for {
		gap, req := sched.next()
		due = due.Add(time.Duration(gap * float64(time.Second)))
		if due.Sub(start) >= dur || ctx.Err() != nil {
			break
		}
		time.Sleep(time.Until(due))
		j := &missJob{seq: *seq, req: req, due: due, measured: !due.Before(start)}
		*seq++
		jobs = append(jobs, j)
		toSend <- j
	}
	close(toSend)
	senders.Wait()
	wall := time.Since(start)
	close(accepted)
	<-polled
	return jobs, wall
}

// pollJobs polls accepted jobs, oldest first, until each is terminal.
// Polling stops at the context's end or two minutes after the senders
// stopped; a job still unfinished then is failed.
func pollJobs(ctx context.Context, e *env, d *daemon, root int32, accepted <-chan *missJob) {
	type pending struct {
		j  *missJob
		at time.Time // next poll
	}
	var (
		queue []pending
		open  = true
		limit time.Time
	)
	take := func(j *missJob, ok bool) {
		if !ok {
			open, limit = false, time.Now().Add(2*time.Minute)
			return
		}
		queue = append(queue, pending{j, j.accepted.Add(missPollDelay)})
	}
	for {
		// Take newly accepted jobs; block only when nothing is queued.
	receive:
		for open {
			if len(queue) == 0 {
				j, ok := <-accepted
				take(j, ok)
				continue
			}
			select {
			case j, ok := <-accepted:
				take(j, ok)
			default:
				break receive
			}
		}
		if len(queue) == 0 {
			return
		}
		p := queue[0]
		queue = queue[1:]
		if (!open && time.Now().After(limit)) || ctx.Err() != nil {
			p.j.err = fmt.Errorf("job %s still %s when polling stopped", p.j.view.ID, p.j.view.Status)
			continue
		}
		time.Sleep(time.Until(p.at))
		id := e.tr.begin("client.GET /v1/jobs", root)
		v, err := d.job(ctx, p.j.view.ID)
		e.tr.end(id)
		switch {
		case err != nil:
			p.j.err = err
		case v.terminal():
			p.j.view = v
		default:
			queue = append(queue, pending{p.j, time.Now().Add(missPollDelay)})
		}
	}
}

// verifyMissSamples checks sampled served documents against spec.Run
// of the same spec in this process, byte for byte.
func verifyMissSamples(ctx context.Context, e *env, root int32, samples []*missJob, t *tally) {
	bad, detail := 0, "none"
	for _, j := range samples {
		err := func() error {
			es, err := spec.Decode(spec.ExperimentKind(j.req.kind), []byte(j.req.body))
			if err != nil {
				return err
			}
			id := e.tr.begin("spec.Run", root)
			exec, err := spec.Run(ctx, es)
			var res *spec.Result
			if err == nil {
				res, err = exec.Result()
			}
			e.tr.end(id)
			if err != nil {
				return err
			}
			want, err := json.Marshal(res.Document())
			if err != nil {
				return err
			}
			if !bytes.Equal(want, j.view.Result) {
				return fmt.Errorf("%s %s: served %d bytes differ from spec.Run's %d", j.req.kind, j.req.body, len(j.view.Result), len(want))
			}
			return nil
		}()
		if err != nil {
			bad++
			detail = err.Error()
		}
	}
	t.check("serve-miss documents", bad == 0 && len(samples) > 0,
		fmt.Sprintf("%d of %d sampled documents differ from spec.Run (last: %s)", bad, len(samples), detail))
}

func firstErr(jobs []*missJob) error {
	for _, j := range jobs {
		if j.err != nil {
			return j.err
		}
		if j.view.Status != "done" {
			return fmt.Errorf("job %s %s: %s", j.view.ID, j.view.Status, j.view.Error)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
