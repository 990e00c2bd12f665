package main

import (
	"fmt"
	"hash/fnv"
	"math"
)

// source is the benchmark's own input generator (splitmix64). It is
// deliberately independent of internal/rng, so a change to the
// program's random streams never changes the benchmark's inputs.
type source struct{ s uint64 }

// newSource derives an independent stream from the workload seed and a
// label naming what the stream generates.
func newSource(seed uint64, label string) *source {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return &source{s: h.Sum64()}
}

func (r *source) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seed returns a fresh simulation seed: nonzero (0 selects a spec's
// default) and below 2^53, so it round-trips through JSON numbers
// exactly.
func (r *source) seed() uint64 { return r.next()>>11 | 1 }

// float returns a uniform value in [0, 1).
func (r *source) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with the given rate.
func (r *source) exp(rate float64) float64 { return -math.Log(1-r.float()) / rate }

// missRequest is one serve-miss submit: the endpoint kind and its JSON
// body, with a seed no other request of the run shares.
type missRequest struct {
	kind string // "solve" or "evaluate"
	body string
}

// Serve-miss mix: mostly k=10⁴ solves split between One-Fail Adaptive
// and Exp Back-on/Back-off, plus a minority of small evaluate sweeps.
const (
	missShareOFA = 0.45
	missShareEBB = 0.45
	missSolveK   = 10_000
)

// missSchedule generates the serve-miss open-loop inputs: Poisson
// inter-arrival gaps (seconds) at the given rate and one request per
// arrival.
type missSchedule struct {
	gaps, mix *source
	rate      float64
}

func newMissSchedule(seed uint64, label string, rate float64) *missSchedule {
	return &missSchedule{gaps: newSource(seed, label+"/gaps"), mix: newSource(seed, label+"/mix"), rate: rate}
}

// next returns the gap before the next arrival and its request.
func (m *missSchedule) next() (gap float64, req missRequest) {
	gap = m.gaps.exp(m.rate)
	u, s := m.mix.float(), m.mix.seed()
	switch {
	case u < missShareOFA:
		req = missRequest{"solve", fmt.Sprintf(`{"protocol":"one-fail","k":%d,"seed":%d}`, missSolveK, s)}
	case u < missShareOFA+missShareEBB:
		req = missRequest{"solve", fmt.Sprintf(`{"protocol":"exp-bb","k":%d,"seed":%d}`, missSolveK, s)}
	default:
		req = missRequest{"evaluate", fmt.Sprintf(`{"ks":[10,100,1000],"runs":3,"seed":%d}`, s)}
	}
	return gap, req
}

// hitBody is the serve-hit request: one small evaluate sweep, the same
// shape macload warms, seeded from the workload seed.
func hitBody(seed uint64) string {
	return fmt.Sprintf(`{"ks":[10,100,1000],"runs":3,"seed":%d}`, newSource(seed, "hit").seed())
}
