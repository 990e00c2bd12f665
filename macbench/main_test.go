package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, m, d)
		}
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	draw := func(seed uint64) string {
		var b strings.Builder
		sched := newMissSchedule(seed, "miss", missRate)
		for i := 0; i < 50; i++ {
			gap, req := sched.next()
			fmt.Fprintf(&b, "%v %s %s\n", gap, req.kind, req.body)
		}
		grid := newSource(seed, "grid")
		for i := 0; i < 10; i++ {
			fmt.Fprintln(&b, grid.seed())
		}
		b.WriteString(hitBody(seed))
		return b.String()
	}
	if draw(42) != draw(42) {
		t.Fatal("one workload seed generated different inputs on two calls")
	}
	if draw(42) == draw(43) {
		t.Fatal("different workload seeds generated identical inputs")
	}
	for _, p := range engineParts {
		if p.seed() != p.seed() || p.seed() == 0 {
			t.Fatalf("engine part %s seed is not fixed", p.metric)
		}
	}
}

func TestPercentilesReportSampleCounts(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentiles must sort
		}
		return xs
	}
	pct, ok := percentiles(sample(2000), -1, 0.5, 0.99)
	if !ok || pct[0].v != 1000 || pct[1].v != 1980 || pct[0].n != 2000 || pct[1].n != 2000 {
		t.Fatalf("2000 samples: got %+v ok=%v", pct, ok)
	}
	if pct[1].note != "20 beyond" {
		t.Fatalf("p99 note %q, want the count beyond it", pct[1].note)
	}
	// 1000 samples leave 10 beyond the p99; 999 leave 9, too few.
	if _, ok := percentiles(sample(1000), -1, 0.99); !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond and must resolve")
	}
	pct, ok = percentiles(sample(999), -1, 0.99)
	if ok || pct[0].v != -1 || pct[0].n != 999 {
		t.Fatalf("999 samples: got %+v ok=%v, want unresolved at the ceiling", pct, ok)
	}
	// Failed requests are +Inf and miss every limit.
	xs := sample(2000)
	for i := 0; i < 30; i++ {
		xs[i] = math.Inf(1)
	}
	pct, _ = percentiles(xs, 123, 0.99)
	if pct[0].v != 123 {
		t.Fatalf("p99 over failures = %v, want the ceiling", pct[0].v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "spec.Run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kernel.FairRun", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "kernel.FairRun", Start: 40, End: 70}, // overlaps its sibling
	}
	self := selfTimes(spans)
	if self["spec"] != 40 || self["kernel"] != 70 {
		t.Fatalf("self times %v, want spec 40 and kernel 70", self)
	}
}

// TestSmokeWorkloads runs every workload briefly, untraced, and one
// traced run, against a macsimd built from this checkout.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds macsimd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "macsimd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/macsimd").CombinedOutput(); err != nil {
		t.Fatalf("building macsimd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && w.name != "serve-miss" {
				continue
			}
			rep, err := run(context.Background(), options{workload: w.name, seed: 3, seconds: 2, trace: trace, macsimd: bin, workDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			for _, d := range rep.emit {
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, d.name)
				}
			}
			for _, c := range rep.checks {
				// Two seconds give too few samples for tail percentiles.
				if !c.ok && !strings.HasSuffix(c.name, "percentiles") {
					t.Errorf("%s trace=%d: check %s failed: %s", w.name, trace, c.name, c.detail)
				}
			}
		}
	}
}

func TestScaleToReference(t *testing.T) {
	m := map[string]value{
		"grid_contenders_per_s": {v: 100},
		"miss_p50_ms":           {v: 4},
		"peak_rss_mb":           {v: 30},
		"hit_p99_ms":            {v: 1},
	}
	// The reference load ran at half the reference rate: the host was
	// twice as slow, so rates double and times halve.
	scaleToReference(m, []float64{refCalib / 2, refCalib / 2, refCalib})
	want := map[string]float64{"grid_contenders_per_s": 200, "miss_p50_ms": 2, "peak_rss_mb": 30, "hit_p99_ms": 1, "calib.loads_per_s": refCalib / 2}
	for k, w := range want {
		if got := m[k].v; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
}
