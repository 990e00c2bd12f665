package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
)

// TestBTProbTableExact: every BT-step probability read from the shared
// table is bit-identical to the inline expression, at σ = 0, 1 and on
// both sides of every doubling from an empty table up to past the cap.
func TestBTProbTableExact(t *testing.T) {
	btTable.Store(nil)
	sigmas := []uint64{0, 1}
	for j := 1; j <= 22; j++ {
		p := uint64(1) << j
		sigmas = append(sigmas, p-1, p, p+1)
	}
	for _, sigma := range sigmas {
		want := 1 / (1 + math.Log2(float64(sigma)+1))
		if got := btProbOf(sigma); got != want {
			t.Fatalf("btProbOf(%d) = %v, want %v", sigma, got, want)
		}
	}
	if n := len(*btTable.Load()); n != btTableMax {
		t.Fatalf("table holds %d entries after σ = 2²², want the cap %d", n, btTableMax)
	}
}

// TestBTProbTableGrowth: the table grows by doubling to the smallest
// power of two above the largest σ seen, starting at btTableMin.
func TestBTProbTableGrowth(t *testing.T) {
	btTable.Store(nil)
	for _, tt := range []struct {
		sigma uint64
		size  int
	}{
		{0, btTableMin},
		{btTableMin - 1, btTableMin},
		{btTableMin, 2 * btTableMin},
		{8 * btTableMin, 16 * btTableMin}, // a jump past the next doubling
		{10_000, 1 << 14},
		{5, 1 << 14},
	} {
		btProbOf(tt.sigma)
		if n := len(*btTable.Load()); n != tt.size {
			t.Fatalf("after σ = %d the table holds %d entries, want %d", tt.sigma, n, tt.size)
		}
	}
}

// TestBTProbTableConcurrent runs One-Fail Adaptive from several
// goroutines at different k, from an empty table, so the table grows
// while others read it; under -race this checks the publication. Each
// run must match the same seed run alone afterwards.
func TestBTProbTableConcurrent(t *testing.T) {
	ks := []int{10, 300, 2000, 9000, 40_000}
	run := func(k int) uint64 {
		ctrl, err := NewOneFailAdaptive(DefaultOFADelta)
		if err != nil {
			t.Error(err)
			return 0
		}
		slots, err := engine.FairRun(k, ctrl, rng.New(uint64(k)), 0)
		if err != nil {
			t.Error(err)
		}
		return slots
	}
	btTable.Store(nil)
	got := make([]uint64, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(k)
		}()
	}
	wg.Wait()
	for i, k := range ks {
		if want := run(k); got[i] != want {
			t.Errorf("k=%d: concurrent run took %d slots, alone %d", k, got[i], want)
		}
	}
}
