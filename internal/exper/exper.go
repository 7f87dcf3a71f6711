// Package exper regenerates every table and figure of the paper's
// evaluation (§V-B and §VI): the numerical-example staircase (Table II,
// Fig. 6), the optimality studies (Table III, Fig. 7), the CG-vs-GAIN3
// simulation campaign (Table IV, Figs. 8-11), the WRF testbed comparison
// (Table VII, Fig. 15), and the ablation / validation experiments from
// DESIGN.md (A1, A2). Each experiment returns structured rows; render.go
// prints them in the papers' row/series layout.
//
// All experiments are deterministic: instance k of an experiment draws
// from rand.NewSource(seed + k), so results are stable under the
// parallel execution used for the larger campaigns.
package exper

import (
	"runtime"
	"sync"
)

// DefaultSeed is the seed used by cmd/experiments and the benches; chosen
// once so published EXPERIMENTS.md numbers are reproducible.
const DefaultSeed int64 = 2013

// parallelForWorkers runs fn(w, i) for every item i in 0..n-1 on up to
// GOMAXPROCS goroutines and blocks until all complete. Each worker index w
// is used by exactly one goroutine at a time, so callers can give every
// worker its own reusable scratch (a campaignScratch, a scheduler with
// engine state) without locking. Work items must be independent;
// determinism comes from per-item seeding, not execution order.
//
// Every item runs even after one fails, and the returned error is the
// failing item with the lowest index — the same error whatever the
// worker count or scheduling. The work channel is buffered to n items:
// the producer enqueues the whole range up front and never blocks on
// goroutine handoff, which removes the synchronous rendezvous per item
// that dominated fan-out overhead for cheap work items. Items are
// enqueued from the highest index down: every campaign plan lists its
// sizes ascending, so the largest items start first and the small ones
// fill the tail, where a large item started last would leave the other
// workers idle.
func parallelForWorkers(n int, fn func(worker, i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first itemErr
		for i := 0; i < n; i++ {
			first.note(i, fn(0, i))
		}
		return first.err
	}
	next := make(chan int, n)
	for i := n - 1; i >= 0; i-- {
		next <- i
	}
	close(next)
	errs := make([]itemErr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				errs[w].note(i, fn(w, i))
			}
		}(w)
	}
	wg.Wait()
	return lowestErr(errs)
}

// itemErr is the lowest-index error one fan-out worker has seen.
type itemErr struct {
	i   int
	err error
}

// note records err for item i if it is the worker's lowest-index failure.
func (e *itemErr) note(i int, err error) {
	if err != nil && (e.err == nil || i < e.i) {
		e.i, e.err = i, err
	}
}

// lowestErr returns the lowest-index error across all workers, or nil.
func lowestErr(errs []itemErr) error {
	var first itemErr
	for _, e := range errs {
		first.note(e.i, e.err)
	}
	return first.err
}
