package sched

import (
	"fmt"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// Runner is the pooled solver of one goroutine, the one way a pooled
// caller (a serve worker, its staircase builds, a campaign worker)
// answers "algorithm X at budget B". It keeps one instance of each
// registry algorithm it was asked for, rebound in place by every later
// solve, and one timing for MED evaluation. Every answer is bit-identical
// to a fresh Run's (TestRunnerMatchesRun). The zero value is ready; a
// Runner must not be shared between goroutines.
//
// medcc:scratch
type Runner struct {
	algs map[string]IntoScheduler

	// The MED timing is keyed on the graph it was built over and that
	// graph's version: it aliases the graph's cache arrays, which an
	// in-place rebuild overwrites, and the graphs of different workflows
	// keep unrelated version counters.
	times []float64
	t     dag.Timing
	tg    *dag.Graph
	tver  uint64
}

// Scheduler returns the runner's instance of the named registry
// algorithm, made on first use. It errors on an algorithm without
// ScheduleInto. The exact solver runs its branch and bound on one
// goroutine: pooled callers already run one Runner per core, and a
// truncated search is reproducible only with Workers = 1.
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
	if o, ok := alg.(*Optimal); ok {
		o.Workers = 1
	}
	if r.algs == nil {
		r.algs = map[string]IntoScheduler{}
	}
	r.algs[name] = alg
	return alg, nil
}

// Solve runs the named algorithm on (w, m) at budget into dst and
// reports whether it truncated its search (TruncationReporter). Given a
// trail, an algorithm that keeps trails resumes from it
// (Sweeper.ResumeInto) and any other solves cold; either way the
// schedule is exactly ScheduleInto's.
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
		s, err = sw.ResumeInto(dst, w, m, budget, tr)
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
// times, the paper's evaluation setting and Run's MED. On a graph or
// graph version other than the last call's, the timing is rebuilt in its
// existing capacity (dag.Timing.Reset), so instances of changing sizes
// allocate only past the largest one seen; otherwise it is refreshed
// with Update. NewTiming is Reset on a fresh value, so every MED is
// bit-identical to a fresh evaluation.
//
// medcc:allocfree
func (r *Runner) MED(w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) (float64, error) {
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return 0, err
	}
	r.times = m.TimesInto(s, r.times)
	g := w.Graph()
	if r.tg == g && r.tver == g.Version() {
		if err := r.t.Update(r.times); err != nil {
			return 0, err
		}
		return r.t.Makespan, nil
	}
	r.tg = nil // a failed rebuild leaves no binding
	if err := r.t.Reset(g, r.times, nil); err != nil {
		return 0, err
	}
	r.tg, r.tver = g, g.Version()
	return r.t.Makespan, nil
}
