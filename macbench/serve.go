package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one macsimd process the benchmark started, listening on a
// loopback port it chose itself.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	done    chan struct{} // closed once the process has exited
	waitErr error
	stderr  *addrWatcher
}

// startDaemon starts macsimd with the in-memory store and returns once
// /healthz answers 200.
func startDaemon(ctx context.Context, e *env) (*daemon, error) {
	cmd := exec.Command(e.macsimd, "-addr", "127.0.0.1:0", "-drain-timeout", "10s")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.procs))
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	w := &addrWatcher{found: make(chan string, 1)}
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting macsimd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), stderr: w, client: newClient(e.procs)}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()

	fail := func(err error) (*daemon, error) {
		_ = cmd.Process.Kill()
		<-d.done
		return nil, fmt.Errorf("%w (macsimd stderr: %q)", err, w.tail())
	}
	select {
	case addr := <-w.found:
		d.base = "http://" + addr
	case <-d.done:
		return fail(fmt.Errorf("macsimd exited during start-up: %v", d.waitErr))
	case <-time.After(30 * time.Second):
		return fail(errors.New("macsimd did not report its address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, err := d.do(ctx, http.MethodGet, "/healthz", "")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("macsimd not healthy: status %d, %v", status, err))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop reads the daemon's peak resident set, then drains it with
// SIGTERM and waits for it to exit (killing it after 20s).
func (d *daemon) stop() (peakMiB float64, err error) {
	peakMiB = peakRSS(d.cmd.Process.Pid)
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return peakMiB, errors.New("macsimd did not drain within 20s and was killed")
	}
	if d.waitErr != nil {
		return peakMiB, fmt.Errorf("macsimd exit: %v (stderr: %q)", d.waitErr, d.stderr.tail())
	}
	return peakMiB, nil
}

// addrWatcher collects the daemon's log and picks the bound address
// out of its "serving on http://ADDR" line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   []byte
	sent  bool
	found chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if !w.sent {
		if _, rest, ok := bytes.Cut(w.buf, []byte("serving on http://")); ok {
			if addr, _, ok := bytes.Cut(rest, []byte(" ")); ok {
				w.found <- string(addr)
				w.sent = true
			}
		}
	}
	if len(w.buf) > 1<<16 {
		w.buf = append(w.buf[:0], w.buf[len(w.buf)-4096:]...)
	}
	return len(p), nil
}

func (w *addrWatcher) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.buf
	if len(b) > 1024 {
		b = b[len(b)-1024:]
	}
	return string(b)
}

// newClient returns a keep-alive client holding at most conns
// connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// do sends one request and reads the whole response.
func (d *daemon) do(ctx context.Context, method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobView is the client side of a submit answer or a job poll.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Cached   bool            `json:"cached"`
}

func (v jobView) terminal() bool {
	return v.Status == "done" || v.Status == "failed" || v.Status == "canceled"
}

// submit posts one experiment and decodes the answer: 200 with a
// cached result or 202 with a job to follow.
func (d *daemon) submit(ctx context.Context, kind, body string) (jobView, []byte, error) {
	status, data, err := d.do(ctx, http.MethodPost, "/v1/"+kind, body)
	if err != nil {
		return jobView{}, nil, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return jobView{}, data, fmt.Errorf("POST /v1/%s: status %d: %s", kind, status, bytes.TrimSpace(data))
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return jobView{}, data, fmt.Errorf("POST /v1/%s: %w", kind, err)
	}
	return v, data, nil
}

// job polls one job.
func (d *daemon) job(ctx context.Context, id string) (jobView, error) {
	status, data, err := d.do(ctx, http.MethodGet, "/v1/jobs/"+id, "")
	if err != nil {
		return jobView{}, err
	}
	if status != http.StatusOK {
		return jobView{}, fmt.Errorf("GET /v1/jobs/%s: status %d", id, status)
	}
	var v jobView
	err = json.Unmarshal(data, &v)
	return v, err
}

// wait follows a job's NDJSON stream to its end, then returns its
// final view; the stream answers as soon as the job is terminal.
func (d *daemon) wait(ctx context.Context, id string) (jobView, error) {
	if _, _, err := d.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", ""); err != nil {
		return jobView{}, err
	}
	v, err := d.job(ctx, id)
	if err == nil && v.Status != "done" {
		err = fmt.Errorf("job %s %s: %s", id, v.Status, v.Error)
	}
	return v, err
}

// run submits one experiment and waits until it is done.
func (d *daemon) run(ctx context.Context, kind, body string) (jobView, error) {
	v, _, err := d.submit(ctx, kind, body)
	if err != nil || v.terminal() {
		return v, err
	}
	return d.wait(ctx, v.ID)
}

// counters scrapes the unlabeled series of /metrics.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	status, data, err := d.do(ctx, http.MethodGet, "/metrics", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serverShares derives the per-layer shares from two /metrics scrapes
// taken around a measured interval.
func serverShares(before, after map[string]float64) map[string]value {
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses, rejected := delta("macsimd_cache_hits_total"), delta("macsimd_cache_misses_total"), delta("macsimd_rejected_total")
	jobs, slots := delta("macsimd_jobs_completed_total"), delta("macsimd_slots_simulated_total")
	submits := hits + misses + rejected
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]value{
		"server.hit_share":      {v: ratio(hits, hits+misses), n: int(hits + misses)},
		"server.rejected_share": {v: ratio(rejected, submits), n: int(submits)},
		"server.slots_per_job":  {v: ratio(slots, jobs), n: int(jobs)},
	}
}
