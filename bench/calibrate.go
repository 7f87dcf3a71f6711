package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"medcc/internal/stats"
)

// The host this benchmark runs on changes speed over minutes: on the
// shared 2-CPU VMs its bounds were measured on, whole minutes ran up to
// 1.7× slower for every workload at once. So a run times a fixed kernel,
// which no change to the repository can touch, between its measured
// intervals: before and after every closed-loop window, set-up and
// campaign pass. An interval's scale is the median kernel time at its
// two ends over calibRef. End-to-end metrics report each interval at
// reference speed (a time divided by its scale, a rate multiplied by
// it); per-layer metrics use the median scale of the whole run.

const (
	// calibWorkers sorts run side by side, one per CPU of the reference
	// machine, so the kernel meets the same contention as the load.
	calibWorkers = 2
	calibLen     = 50_000

	// calibRef is the kernel's median time on the reference machine.
	calibRef = 3700 * time.Microsecond
)

// calibration holds the kernel's buffer and the kernel times measured
// at each mark.
type calibration struct {
	buf   []int
	marks [][]float64 // seconds
}

func newCalibration() *calibration {
	return &calibration{buf: make([]int, calibWorkers*calibLen)}
}

// mark times the kernel n times, after a collection so that no GC work
// overlaps it, and returns the mark's index. The kernel: each of
// calibWorkers goroutines sorts its share of the same pseudo-random
// ints.
func (c *calibration) mark(n int) int {
	runtime.GC()
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(1))
		for j := range c.buf {
			c.buf[j] = rng.Int()
		}
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < calibWorkers; k++ {
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				sort.Ints(part)
			}(c.buf[k*calibLen : (k+1)*calibLen])
		}
		wg.Wait()
		times = append(times, time.Since(start).Seconds())
	}
	c.marks = append(c.marks, times)
	return len(c.marks) - 1
}

// scale is how much slower than the reference the machine ran at the
// given marks; with none given, over the whole run.
func (c *calibration) scale(marks ...int) float64 {
	var xs []float64
	if len(marks) == 0 {
		for _, m := range c.marks {
			xs = append(xs, m...)
		}
	}
	for _, i := range marks {
		xs = append(xs, c.marks[i]...)
	}
	return stats.Percentile(xs, 50) / calibRef.Seconds()
}
