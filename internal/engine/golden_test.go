package engine

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cd"
	"repro/internal/core"
	"repro/internal/rng"
)

// TestGoldenCompletions pins exact completion slots for fixed seeds
// across every protocol family and engine. These are regression anchors:
// any change to an algorithm's decision sequence, to an engine's sampling
// order, or to the RNG stream derivation shows up here immediately. The
// values carry no meaning beyond "the behaviour on 2026-06-11, when the
// Table 1 reproduction was validated" — if a deliberate change breaks
// them, regenerate and re-validate Table 1.
func TestGoldenCompletions(t *testing.T) {
	t.Parallel()
	golden := []struct {
		protocol string
		k        int
		want     uint64
	}{
		{protocol: "ofa", k: 7, want: 24},
		{protocol: "ofa", k: 64, want: 438},
		{protocol: "ofa", k: 513, want: 3714},
		{protocol: "ebb", k: 7, want: 23},
		{protocol: "ebb", k: 64, want: 340},
		{protocol: "ebb", k: 513, want: 2658},
		{protocol: "lfa", k: 7, want: 17},
		{protocol: "lfa", k: 64, want: 13838},
		{protocol: "lfa", k: 513, want: 80973},
		{protocol: "llib", k: 7, want: 13},
		{protocol: "llib", k: 64, want: 260},
		{protocol: "llib", k: 513, want: 2968},
		{protocol: "tree", k: 7, want: 15},
		{protocol: "tree", k: 64, want: 169},
		{protocol: "tree", k: 513, want: 1453},
	}
	for _, tt := range golden {
		tt := tt
		t.Run(fmt.Sprintf("%s/k=%d", tt.protocol, tt.k), func(t *testing.T) {
			t.Parallel()
			src := rng.NewStream(12345, "golden", tt.protocol, fmt.Sprint(tt.k))
			var (
				got uint64
				err error
			)
			switch tt.protocol {
			case "ofa":
				ctrl, cerr := core.NewOneFailAdaptive(core.DefaultOFADelta)
				if cerr != nil {
					t.Fatal(cerr)
				}
				got, err = FairRun(tt.k, ctrl, src, 0)
			case "ebb":
				sched, cerr := core.NewExpBackonBackoff(core.DefaultEBBDelta)
				if cerr != nil {
					t.Fatal(cerr)
				}
				var r WindowRunner
				got, err = r.Run(tt.k, sched, src, 0)
			case "lfa":
				ctrl, cerr := baseline.NewLogFailsAdaptive(1/float64(tt.k+1), 0.5)
				if cerr != nil {
					t.Fatal(cerr)
				}
				got, err = FairRun(tt.k, ctrl, src, 0)
			case "llib":
				sched, cerr := baseline.NewLoglogIteratedBackoff(2)
				if cerr != nil {
					t.Fatal(cerr)
				}
				var r WindowRunner
				got, err = r.Run(tt.k, sched, src, 0)
			case "tree":
				got, err = cd.TreeRun(tt.k, src, 0)
			default:
				t.Fatalf("unknown protocol %q", tt.protocol)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("%s k=%d completed at slot %d, golden value %d", tt.protocol, tt.k, got, tt.want)
			}
		})
	}
}
