package sched

import (
	"fmt"
	"math/rand"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// IntoScheduler is implemented by schedulers that can write their result
// into a caller-provided schedule, so repeated scheduling of the same
// instance runs without per-call result allocations.
type IntoScheduler interface {
	Scheduler
	// ScheduleInto behaves like Schedule but reuses dst for the result
	// when it has the capacity (allocating otherwise).
	ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error)
}

// Sweeper is implemented by schedulers that share work between solves at
// different budgets. Every level of a sweep is exactly the schedule
// ScheduleInto returns at its budget (or the same error), whatever the
// sweep starts from; a Sweeper only makes the levels cheaper than solving
// each one from scratch.
type Sweeper interface {
	IntoScheduler
	// SweepInto schedules the instance at each budgets[k] (which must be
	// ascending), writing the level-k schedule into dst[k]; dst is grown
	// to len(budgets) when shorter and existing entries are reused.
	// Level 0 starts from the part of from that still holds at budgets[0]
	// when from was recorded by the same algorithm on the same (w, m) at
	// a budget at or below it (see Trail); any other trail, nil included,
	// starts cold. Each later level continues from the one below. A
	// non-nil trails, at least len(budgets) long, receives every level's
	// trail, and a level whose steps all held shares the trail below.
	SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64, from *Trail, trails []*Trail) ([]workflow.Schedule, error)
}

// SweepSchedules runs sch at every budget of an ascending sweep: through
// SweepInto from cold, recording no trails, when sch implements Sweeper,
// and as one ScheduleInto per level otherwise. Either way level k equals
// ScheduleInto at budgets[k].
func SweepSchedules(sch IntoScheduler, dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	if sw, ok := sch.(Sweeper); ok {
		return sw.SweepInto(dst, w, m, budgets, nil, nil)
	}
	return sweepEach(sch, dst, w, m, budgets)
}

// sweepEach solves every level of an ascending sweep separately.
func sweepEach(sch IntoScheduler, dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	if err := checkAscending(budgets); err != nil {
		return nil, err
	}
	dst = growSweepDst(dst, len(budgets))
	for k, b := range budgets {
		s, err := sch.ScheduleInto(dst[k], w, m, b)
		if err != nil {
			return nil, err
		}
		dst[k] = s
	}
	return dst, nil
}

// checkAscending validates a sweep's budget levels. The comparison is
// negated so a NaN level errors too.
func checkAscending(budgets []float64) error {
	for k := 1; k < len(budgets); k++ {
		if !(budgets[k] >= budgets[k-1]) {
			return fmt.Errorf("sweep budgets not ascending: budgets[%d]=%.6g < budgets[%d]=%.6g",
				k, budgets[k], k-1, budgets[k-1])
		}
	}
	return nil
}

// startSweep validates an ascending sweep, sizes dst to its levels and,
// unless the sweep is empty, checks budgets[0] against Cmin, keeps the
// least-cost schedule in e.lc and binds the engine.
func (e *engine) startSweep(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) (_ []workflow.Schedule, cmin float64, err error) {
	if err := checkAscending(budgets); err != nil {
		return nil, 0, err
	}
	dst = growSweepDst(dst, len(budgets))
	if len(budgets) == 0 {
		return dst, 0, nil
	}
	lc, cmin, err := checkFeasibleInto(w, m, budgets[0], e.lc)
	if err != nil {
		return nil, 0, err
	}
	e.lc = lc
	e.bind(w, m)
	return dst, cmin, nil
}

// growSweepDst resizes a sweep destination to n levels, keeping existing
// per-level schedules for reuse.
func growSweepDst(dst []workflow.Schedule, n int) []workflow.Schedule {
	if cap(dst) < n {
		nd := make([]workflow.Schedule, n) // medcc:lint-ignore allocfree — first-use growth; steady state reuses dst.
		copy(nd, dst)
		return nd
	}
	return dst[:n]
}

// copySchedule copies src into dst, reusing dst when it has the
// capacity, as ScheduleInto reuses its destination.
func copySchedule(dst, src workflow.Schedule) workflow.Schedule {
	if cap(dst) < len(src) {
		dst = make(workflow.Schedule, len(src)) // medcc:lint-ignore allocfree — first-use growth; steady state reuses dst.
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// engine is the scratch state a scheduler keeps between calls: the
// incremental timing, the execution-time buffer it is bound to, the
// schedulable-module list, and candidate/visited scratch. Binding is keyed
// on the (workflow, matrices) pair, so a scheduler instance reused across
// calls on the same instance reaches a steady state with zero per-iteration
// heap allocations.
//
// A scheduler holding an engine is NOT safe for concurrent use; create one
// instance per goroutine (the registry constructors always return fresh
// instances).
//
// medcc:scratch
type engine struct {
	w *workflow.Workflow
	m *workflow.Matrices
	// wver/mver pin the graph version and matrices epoch the scratch was
	// built against: pooled builders rebuild workflows and matrices in
	// place behind unchanged pointers, so pointer equality alone would
	// let stale timings and module lists leak across instances.
	wver, mver uint64
	// binds counts the binds that refilled the scratch (bind's slow
	// path). State a scheduler derives from the bound instance stays
	// valid while the count it was built at is current.
	binds uint64

	// t is the incremental timing; tbound reports that it is bound to
	// the current binding's graph (bind keeps t for reuse but clears
	// tbound, and resetTiming rebuilds it in place).
	t      *dag.Timing
	tbound bool
	times  []float64
	mods   []int
	moved  []bool
	lc     workflow.Schedule

	// ct is the per-module best-upgrade cache and lazy-deletion heap the
	// greedy reschedulers drain instead of rescanning every (module, type)
	// pair per iteration.
	ct candTab
}

// bind points the engine at a (workflow, matrices) pair, reusing all
// scratch when the pair is unchanged since the last call. When the pair
// changed but the module and catalog counts did not — pooled builders
// rebuilding instances in place — the module list, timing buffer,
// candidate scratch, and visited flags are all refilled in place rather
// than reallocated.
//
// medcc:coldpath — first binds (and size growth) allocate the scratch;
// steady-state calls take the early return or refill existing capacity.
func (e *engine) bind(w *workflow.Workflow, m *workflow.Matrices) {
	if e.w == w && e.m == m && len(e.times) == w.NumModules() &&
		e.wver == w.Graph().Version() && e.mver == m.Epoch() {
		return
	}
	e.w, e.m = w, m
	e.wver, e.mver = w.Graph().Version(), m.Epoch()
	e.binds++
	e.tbound = false
	e.mods = w.SchedulableInto(e.mods)
	nm := w.NumModules()
	if cap(e.times) < nm {
		e.times = make([]float64, nm)
	} else {
		e.times = e.times[:nm]
	}
	if cap(e.moved) < nm {
		e.moved = make([]bool, nm)
	} else {
		e.moved = e.moved[:nm]
	}
}

// resetTiming refreshes the incremental timing to schedule s, rebinding
// it to the bound graph in place after a bind (and constructing it on
// first use). Afterwards e.t aliases e.times: UpdateNode keeps both in
// sync, and callers must never write e.times directly before updating.
func (e *engine) resetTiming(s workflow.Schedule) error {
	e.times = e.m.TimesInto(s, e.times)
	if e.tbound {
		return e.t.Update(e.times)
	}
	if e.t == nil {
		t, err := dag.NewTiming(e.w.Graph(), e.times, nil)
		if err != nil {
			return err
		}
		e.t = t
	} else if err := e.t.Reset(e.w.Graph(), e.times, nil); err != nil {
		return err
	}
	e.tbound = true
	return nil
}

// updateNode applies the reassignment of module i to type j to the bound
// timing, re-relaxing only the affected suffix of the topological order,
// and reports whether the makespan moved.
func (e *engine) updateNode(i, j int) bool {
	return e.t.UpdateNode(i, e.m.TE[i][j])
}

// resetMoved clears and returns the per-module visited scratch.
func (e *engine) resetMoved() []bool {
	for i := range e.moved {
		e.moved[i] = false
	}
	return e.moved
}

// feasible runs the least-cost feasibility check into the engine's own
// schedule scratch, for schedulers that do not start from least-cost.
func (e *engine) feasible(budget float64) error {
	lc, _, err := checkFeasibleInto(e.w, e.m, budget, e.lc)
	if err != nil {
		return err
	}
	e.lc = lc
	return nil
}

// checkFeasibleInto is checkFeasible with a reusable destination for the
// least-cost schedule.
func checkFeasibleInto(w *workflow.Workflow, m *workflow.Matrices, budget float64, dst workflow.Schedule) (workflow.Schedule, float64, error) {
	if !m.HasOptionTable() {
		return nil, 0, ErrNoOptions
	}
	lc := m.LeastCostInto(w, dst)
	cmin := m.Cost(lc)
	// Negated so a NaN budget is infeasible: no schedule costs <= NaN.
	if !(budget >= cmin) {
		return nil, 0, fmt.Errorf("%w: budget %.6g < Cmin %.6g", ErrInfeasible, budget, cmin)
	}
	return lc, cmin, nil
}

// permInto fills p with a random permutation of 0..len(p)-1, drawing from
// rng exactly as math/rand.Perm does. Metaheuristics seeded before this
// change keep their random streams — and therefore their outputs —
// bit-for-bit identical while dropping Perm's per-call allocation.
func permInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
