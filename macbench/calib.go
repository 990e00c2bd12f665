package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// The reference load is fixed work that uses none of the program's
// code, in two halves of about equal length. On each of procs threads:
// random read-modify-writes into a table larger than the per-core
// caches, then a fill, sort and map count of a slice — the arithmetic,
// memory traffic and allocation the simulators do. Then two goroutines
// hand a value back and forth over unbuffered channels — the wake-ups
// the serving paths and the worker pools pay. measure times it before
// every slice. The reference machine's speed moves with its
// neighbours' load, by up to 2× within ten minutes, and every path
// moves with it; the end-to-end metrics are scaled by how fast the
// reference load ran (see scaleToReference). Either half alone tracked
// some paths and missed others (METHODOLOGY.md).
const (
	calibTableLen = 1 << 19 // uint64s: 4 MiB, shared by the threads
	calibSteps    = 1 << 19 // table updates per thread
	calibSortLen  = 1 << 16
	calibRounds   = 1
	calibHandoffs = 37_500 // round trips
)

// refCalib is a round figure near the reference load's rate on the
// reference machine (Intel Xeon, 2 vCPUs, Go 1.24: 21.2–25.3 loads/s
// over the forty runs in METHODOLOGY.md's "Steadiness"). It fixes the
// scale only: a run whose reference load ran at refCalib reports its
// metrics as measured.
const refCalib = 20.0 // loads per second

var calibTable = make([]uint64, calibTableLen)

// calibrate runs the reference load on procs threads at once and
// returns loads per second.
func calibrate(procs int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			next := func() uint64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x
			}
			for j := 0; j < calibSteps; j++ {
				calibTable[next()&(calibTableLen-1)] += x
			}
			xs := make([]uint64, calibSortLen)
			counts := make(map[uint64]int)
			for r := 0; r < calibRounds; r++ {
				for j := range xs {
					xs[j] = next()
				}
				slices.Sort(xs)
				clear(counts)
				for _, v := range xs {
					counts[v>>48]++
				}
				x += uint64(len(counts))
			}
			calibTable[i] += x
		}()
	}
	wg.Wait()

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < calibHandoffs; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	return 1 / time.Since(start).Seconds()
}

// scaleToReference rescales the end-to-end metrics to the reference
// machine's speed: a rate by refCalib over the run's median reference
// load rate, a time by the inverse. The reference load runs while the
// paths are idle, so it tracks the host, not the program: a faster
// kernel still raises grid_contenders_per_s one for one. The measured
// value stays in the report's note.
func scaleToReference(metrics map[string]value, calib []float64) {
	factor := refCalib / median(append([]float64(nil), calib...))
	for _, d := range endToEnd {
		v, ok := metrics[d.name]
		if !ok || d.scale == 0 {
			continue
		}
		raw := v.v
		if d.scale > 0 {
			v.v *= factor
		} else {
			v.v /= factor
		}
		v.note = strings.TrimPrefix(fmt.Sprintf("%s; measured %.6g", v.note, raw), "; ")
		metrics[d.name] = v
	}
	metrics["calib.loads_per_s"] = value{v: median(append([]float64(nil), calib...)), n: len(calib), note: "reference load, one before each slice"}
}
