package sched

import (
	"fmt"

	"medcc/internal/workflow"
)

// Runner is the pooled solver of one goroutine, the one way a pooled
// caller (a serve worker, its staircase builds, a campaign worker)
// answers "algorithm X at budget B". It keeps one instance of each
// registry algorithm it was asked for, rebound in place by every later
// solve, and the scratch of MED's forward pass. Every answer is
// bit-identical to a fresh Run's (TestRunnerMatchesRun). The zero value
// is ready; a Runner must not be shared between goroutines.
//
// medcc:scratch
type Runner struct {
	algs map[string]IntoScheduler

	// A resume's one-level sweep: its budget and destination.
	budget [1]float64
	dst    [1]workflow.Schedule

	// MED's scratch: the schedule's execution times and the finish times
	// of dag.Graph.Makespan. Neither is derived from a graph, so a
	// workflow rebuilt in place needs no keying.
	times, eft []float64
}

// Scheduler returns the runner's instance of the named registry
// algorithm, made on first use. It errors on an algorithm without
// ScheduleInto.
//
// medcc:coldpath — makes an instance once per (runner, algorithm).
func (r *Runner) Scheduler(name string) (IntoScheduler, error) {
	if alg, ok := r.algs[name]; ok {
		return alg, nil
	}
	sc, err := Get(name)
	if err != nil {
		return nil, err
	}
	alg, ok := sc.(IntoScheduler)
	if !ok {
		return nil, fmt.Errorf("sched: %s does not support pooled scheduling", name)
	}
	if r.algs == nil {
		r.algs = map[string]IntoScheduler{}
	}
	r.algs[name] = alg
	return alg, nil
}

// Solve runs the named algorithm on (w, m) at budget into dst and
// reports whether it truncated its search (TruncationReporter). Given a
// trail, a Sweeper resumes from it with a one-level sweep
// (Sweeper.SweepInto, recording no trail) and any other algorithm solves
// cold; either way the schedule is exactly ScheduleInto's.
//
// medcc:allocfree
// medcc:deterministic — pinned to Run by TestRunnerMatchesRun
func (r *Runner) Solve(name string, dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, tr *Trail) (workflow.Schedule, bool, error) {
	alg, err := r.Scheduler(name)
	if err != nil {
		return nil, false, err
	}
	var s workflow.Schedule
	if sw, ok := alg.(Sweeper); ok && tr != nil {
		r.budget[0], r.dst[0] = budget, dst
		var out []workflow.Schedule
		if out, err = sw.SweepInto(r.dst[:], w, m, r.budget[:], tr, nil); err == nil {
			s = out[0]
		}
		r.dst[0] = nil
	} else {
		s, err = alg.ScheduleInto(dst, w, m, budget)
	}
	if err != nil {
		return nil, false, err
	}
	rep, ok := alg.(TruncationReporter)
	return s, ok && rep.WasTruncated(), nil
}

// MED validates s and returns its end-to-end delay with zero transfer
// times, the paper's evaluation setting and Run's MED. It runs only the
// forward pass (dag.Graph.Makespan), bit-identical to a fresh
// dag.Timing's makespan, into scratch that grows only past the largest
// instance seen.
//
// medcc:allocfree
func (r *Runner) MED(w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) (float64, error) {
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return 0, err
	}
	r.times = m.TimesInto(s, r.times)
	mk, eft, err := w.Graph().Makespan(r.times, r.eft)
	r.eft = eft
	return mk, err
}
