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
	// when it has the right length (allocating otherwise).
	ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error)
}

// Sweeper is implemented by schedulers that support warm-started budget
// sweeps: solving the same instance at several ascending budgets, each
// level resuming from the previous level's schedule and surviving
// candidate state instead of re-solving from scratch. A warm level is a
// different procedure from a cold solve at the same budget and mostly
// returns a different schedule (Greedy.SweepInto gives the counts); the
// sweep campaign runners (Table II, Fig. 6, Table IV, Figs. 9-11) drive
// schedulers through this interface.
type Sweeper interface {
	IntoScheduler
	// SweepInto schedules the instance at each budgets[k] (which must be
	// ascending), writing the level-k schedule into dst[k]; dst is grown
	// to len(budgets) when shorter and existing entries of the right
	// length are reused.
	SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error)
}

// SweepSchedules runs sch at every budget of an ascending sweep, using the
// warm-started SweepInto when sch implements Sweeper and independent cold
// solves per level otherwise (GAIN, whose once-per-task rule is defined
// against a single solve, takes the cold path).
func SweepSchedules(sch IntoScheduler, dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	if sw, ok := sch.(Sweeper); ok {
		return sw.SweepInto(dst, w, m, budgets)
	}
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

// checkAscending validates a sweep's budget levels.
func checkAscending(budgets []float64) error {
	for k := 1; k < len(budgets); k++ {
		if budgets[k] < budgets[k-1] {
			return fmt.Errorf("sweep budgets not ascending: budgets[%d]=%.6g < budgets[%d]=%.6g",
				k, budgets[k], k-1, budgets[k-1])
		}
	}
	return nil
}

// growSweepDst resizes a sweep destination to n levels, keeping existing
// per-level schedules for reuse.
func growSweepDst(dst []workflow.Schedule, n int) []workflow.Schedule {
	if cap(dst) < n {
		nd := make([]workflow.Schedule, n)
		copy(nd, dst)
		return nd
	}
	return dst[:n]
}

// copySchedule copies src into dst, reusing dst when it has the right
// length.
func copySchedule(dst, src workflow.Schedule) workflow.Schedule {
	if len(dst) != len(src) {
		dst = make(workflow.Schedule, len(src))
	}
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

	t     *dag.Timing
	times []float64
	mods  []int
	cand  []int
	moved []bool
	lc    workflow.Schedule

	// ct is the per-module best-upgrade cache and lazy-deletion heap the
	// greedy reschedulers drain instead of rescanning every (module, type)
	// pair per iteration; trk is the reusable changed-set buffer for
	// dag.Timing.UpdateNodeTracked.
	ct  candTab
	trk []int32
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
	e.t = nil
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
	if cap(e.cand) < len(e.mods) {
		e.cand = make([]int, 0, len(e.mods))
	} else {
		e.cand = e.cand[:0]
	}
}

// resetTiming refreshes the incremental timing to schedule s, constructing
// it on first use. Afterwards e.t aliases e.times: UpdateNode keeps both in
// sync, and callers must never write e.times directly before updating.
func (e *engine) resetTiming(s workflow.Schedule) error {
	e.times = e.m.TimesInto(s, e.times)
	if e.t == nil {
		t, err := dag.NewTiming(e.w.Graph(), e.times, nil)
		if err != nil {
			return err
		}
		e.t = t
		return nil
	}
	return e.t.Update(e.times)
}

// updateNode applies the reassignment of module i to type j to the bound
// timing, re-relaxing only the affected suffix of the topological order.
func (e *engine) updateNode(i, j int) {
	e.t.UpdateNode(i, e.m.TE[i][j])
}

// critical fills the candidate scratch with the schedulable modules on the
// current critical path.
func (e *engine) critical() []int {
	e.cand = e.cand[:0]
	for _, i := range e.mods {
		if e.t.IsCritical(i) {
			e.cand = append(e.cand, i)
		}
	}
	return e.cand
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
	if budget < cmin {
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
