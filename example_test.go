package mac_test

import (
	"context"
	"fmt"

	mac "repro"
)

// ExampleRun shows the single experiment entry point shared by the
// library, the CLI and the HTTP API: build a declarative spec, run it,
// and collect the typed result. Identical specs produce identical
// results on every front end.
func ExampleRun() {
	exec, err := mac.Run(context.Background(), mac.SolveExperiment(mac.SolveSpec{
		Protocol: mac.ProtocolSpec{Name: "one-fail"},
		K:        1000,
		Seed:     42,
	}))
	if err != nil {
		panic(err)
	}
	res, err := exec.Result()
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s solved k=%d in %d slots (ratio %.2f)\n",
		res.Solve.System, res.Solve.K, res.Solve.Slots, res.Solve.Ratio)
	// Output:
	// One-Fail Adaptive solved k=1000 in 7323 slots (ratio 7.32)
}

// ExampleRun_events streams typed progress events while an experiment
// runs — the same records the HTTP /stream endpoint and `macsim
// -stream` emit as NDJSON.
func ExampleRun_events() {
	exec, err := mac.Run(context.Background(), mac.EvaluateExperiment(mac.EvaluateSpec{
		Protocols: []mac.ProtocolSpec{{Name: "exp-bb"}},
		Ks:        []int{100},
		Runs:      2,
		Seed:      1,
	}))
	if err != nil {
		panic(err)
	}
	// Each run's result is deterministic in the seed, but sweep workers
	// publish concurrently, so events may arrive in any order — collect
	// them and print by run index.
	slots := map[int]uint64{}
	for ev, err := range exec.Events() {
		if err != nil {
			panic(err)
		}
		if p, ok := ev.(mac.SweepProgress); ok {
			slots[p.Run] = p.Slots
		}
	}
	for run := 0; run < len(slots); run++ {
		fmt.Printf("run %d of k=100 finished in %d slots\n", run, slots[run])
	}
	// Output:
	// run 0 of k=100 finished in 595 slots
	// run 1 of k=100 finished in 611 slots
}

// ExampleEvaluateDynamic measures sustained throughput under dynamic
// arrivals — the §6 future-work extension. Every protocol faces the
// identical workload instances (matched pairs), so rankings are
// comparable under one seed.
func ExampleEvaluateDynamic() {
	lineup := mac.DynamicProtocols()[:1] // Exp Back-on/Back-off
	series, err := mac.EvaluateDynamic(lineup, mac.DynamicConfig{
		Lambdas:  []float64{0.05, 0.1},
		Messages: 500,
		Runs:     2,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Printf("%s λ=%.2f throughput=%.3f msgs/slot (%d/%d drained)\n",
				s.Protocol.Name, p.Lambda, p.Throughput.Mean(), p.Completed, p.Runs)
		}
	}
	// Output:
	// Exp Back-on/Back-off λ=0.05 throughput=0.050 msgs/slot (2/2 drained)
	// Exp Back-on/Back-off λ=0.10 throughput=0.101 msgs/slot (2/2 drained)
}

// ExampleRun_adaptivePrecision asks for a result at a target precision
// instead of a fixed repetition count: each point replicates until its
// Student-t confidence interval is narrower than Epsilon·mean at the
// requested confidence (bounded by MinReps/MaxReps), so low-variance
// points stop early and the simulation budget concentrates where
// variance is high. The result document reports the error bar (CI95)
// and the replications spent (RepsUsed) per point.
func ExampleRun_adaptivePrecision() {
	exec, err := mac.Run(context.Background(), mac.EvaluateExperiment(mac.EvaluateSpec{
		Protocols: []mac.ProtocolSpec{{Name: "exp-bb"}},
		Ks:        []int{300},
		Seed:      1,
		Precision: &mac.PrecisionSpec{Epsilon: 0.1, Confidence: 0.95, MinReps: 3, MaxReps: 64},
	}))
	if err != nil {
		panic(err)
	}
	res, err := exec.Result()
	if err != nil {
		panic(err)
	}
	cell := res.Evaluate.Series[0].Cells[0]
	fmt.Printf("k=%d converged after %d of at most 64 replications\n", cell.K, cell.RepsUsed)
	fmt.Printf("mean slots %.1f ± %.1f (95%% CI)\n", cell.MeanSlots, cell.CI95)
	// Output:
	// k=300 converged after 9 of at most 64 replications
	// mean slots 1449.0 ± 124.7 (95% CI)
}
