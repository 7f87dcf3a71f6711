package sched

import (
	"sort"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// GAIN is the budget-spending baseline family of Sakellariou et al.,
// "Scheduling workflows with budget constraints" (2007), as characterized
// in the MED-CC paper: start from the least-cost schedule and repeatedly
// reassign the task with the largest GainWeight — the ratio of time
// decrease over cost increase — while the leftover budget allows. Each
// task is reassigned at most once (the weights are defined against the
// task's current assignment, and a task whose assignment has been upgraded
// leaves the candidate pool).
//
// The variants differ in how the weight is computed and when:
//
//   - GAIN1 computes all GainWeights once against the initial least-cost
//     schedule, sorts the (task, type) upgrades by descending weight, and
//     applies them in that order, skipping upgrades that no longer fit the
//     leftover budget or touch an already-upgraded task.
//   - GAIN2 measures the decrease of the whole-DAG makespan produced by a
//     tentative reassignment instead of the task-local execution time
//     (globally aware, quadratically slower).
//   - GAIN3 re-selects the globally best affordable (task, type) pair at
//     every iteration using task-local weights. This is the variant the
//     MED-CC paper compares against ("the modules with large GainWeight,
//     which is only a local difference ratio, may not have a critical
//     impact on the entire execution time"), reported as the best
//     performer of the group.
//
// A fourth registry entry, "gain-fixpoint", lifts the once-per-task rule
// and lets GAIN3 keep re-upgrading tasks until no affordable improving
// move remains. It is stronger than anything in the 2007 family —
// effectively a knapsack-style ratio greedy — and is included as an
// ablation baseline (see DESIGN.md §5).
type GAIN struct {
	Variant int // 1, 2 or 3

	eng engine
}

// Name implements Scheduler.
func (g *GAIN) Name() string {
	switch g.Variant {
	case 1:
		return "gain1"
	case 2:
		return "gain2"
	default:
		return "gain3"
	}
}

// Schedule implements Scheduler.
func (g *GAIN) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return g.ScheduleInto(nil, w, m, budget)
}

// ScheduleInto implements IntoScheduler.
//
// medcc:allocfree — holds for the iterative GAIN2/GAIN3 paths; GAIN1's
// staticOrder is per-call setup and opts out via medcc:coldpath.
// medcc:deterministic — replayed bit-identical by the differential tests
func (g *GAIN) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	switch g.Variant {
	case 1:
		return g.staticOrder(dst, w, m, budget)
	case 2:
		return g.oncePerTask(dst, w, m, budget, true)
	default:
		return g.oncePerTask(dst, w, m, budget, false)
	}
}

// staticOrder implements GAIN1: one descending-weight pass over upgrades
// precomputed against the least-cost schedule. The upgrade list itself is
// per-call setup; the application pass allocates nothing.
//
// medcc:coldpath — the precomputed upgrade list and its sort allocate by
// design; GAIN1 is a baseline, not a steady-state path.
func (g *GAIN) staticOrder(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	e := &g.eng
	e.bind(w, m)
	type upgrade struct {
		i, j   int
		dt, dc float64
	}
	var ups []upgrade
	for _, i := range e.mods {
		for _, j := range e.m.Options(i) {
			if j == s[i] {
				continue
			}
			dt := m.TE[i][s[i]] - m.TE[i][j]
			dc := m.CE[i][j] - m.CE[i][s[i]]
			if dt <= dag.Eps {
				continue
			}
			ups = append(ups, upgrade{i, j, dt, dc})
		}
	}
	sort.SliceStable(ups, func(a, b int) bool {
		ra, rb := ratio(ups[a].dt, ups[a].dc), ratio(ups[b].dt, ups[b].dc)
		// medcc:lint-ignore floateq — comparator needs a strict weak order; exact rank split, then epsilon-free tie-break.
		if ra != rb {
			return ra > rb
		}
		return ups[a].dt > ups[b].dt
	})
	moved := e.resetMoved()
	for _, u := range ups {
		if moved[u.i] {
			continue
		}
		if u.dc > budget-ctmp+costEps {
			continue
		}
		s[u.i] = u.j
		moved[u.i] = true
		ctmp += u.dc
	}
	return s, nil
}

// oncePerTask implements GAIN2 (makespanWeight true) and GAIN3: pick the
// best affordable (task, type) pair each iteration, retiring each task
// after its single reassignment. GAIN2's whole-DAG weights come from the
// incremental timing's WhatIfMakespan probe instead of a trial Timing per
// candidate, turning its O(candidates x full-DAG-pass) iteration into
// O(candidates x affected-suffix) with zero allocations. GAIN3's
// task-local weights depend only on the task's own assignment, so it runs
// off the candidate heap: one option scan per module up front, then one
// pop per accepted upgrade (its ranking rule is exactly candMaxRatio).
func (g *GAIN) oncePerTask(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, makespanWeight bool) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	e := &g.eng
	e.bind(w, m)
	if !makespanWeight {
		e.ct.start(e, candMaxRatio)
		e.resetMoved()
		g.runHeap(s, &ctmp, budget)
		return s, nil
	}
	if err := e.resetTiming(s); err != nil {
		return nil, err
	}
	moved := e.resetMoved()
	for {
		cextra := budget - ctmp
		if cextra <= 0 {
			break
		}
		bi, bj := -1, -1
		var bestDT, bestDC float64
		for _, i := range e.mods {
			if moved[i] {
				continue
			}
			for _, j := range e.m.Options(i) {
				if j == s[i] {
					continue
				}
				dc := m.CE[i][j] - m.CE[i][s[i]]
				if dc > cextra+costEps {
					continue
				}
				if m.TE[i][s[i]]-m.TE[i][j] <= dag.Eps {
					continue
				}
				dt := e.t.Makespan - e.t.WhatIfMakespan(i, m.TE[i][j])
				if dt <= dag.Eps {
					continue
				}
				if bi == -1 || ratio(dt, dc) > ratio(bestDT, bestDC) ||
					// medcc:lint-ignore floateq — equal-rank detection before the dt tie-break; ratios may be +Inf where epsilon is meaningless.
					(ratio(dt, dc) == ratio(bestDT, bestDC) && dt > bestDT+dag.Eps) {
					bi, bj, bestDT, bestDC = i, j, dt, dc
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		moved[bi] = true
		ctmp += bestDC
		e.updateNode(bi, bj)
	}
	return s, nil
}

// runHeap drains the candidate heap under the once-per-task discipline at
// the given budget, leaving the state warm for a larger budget level.
//
// medcc:allocfree
func (g *GAIN) runHeap(s workflow.Schedule, ctmp *float64, budget float64) {
	e := &g.eng
	cextra := budget - *ctmp
	if cextra <= 0 {
		return
	}
	e.ct.rebuild(s, cextra, actUnmoved)
	for {
		cextra = budget - *ctmp
		if cextra <= 0 {
			return
		}
		i, j, dc, ok := e.ct.popBest(s, cextra, actUnmoved)
		if !ok {
			return
		}
		s[i] = j
		e.moved[i] = true
		*ctmp += dc
		// The module is retired for this pass, but its cache must reflect
		// the new assignment for warm sweep levels that re-admit it.
		e.ct.evalModule(i, s, budget-*ctmp)
		if dc < 0 {
			e.ct.refreshGrown(s, budget-*ctmp, actUnmoved)
		}
	}
}

func init() {
	Register("gain1", func() Scheduler { return &GAIN{Variant: 1} })
	Register("gain2", func() Scheduler { return &GAIN{Variant: 2} })
	Register("gain3", func() Scheduler { return &GAIN{Variant: 3} })
	Register("gain-fixpoint", func() Scheduler {
		return &Greedy{Label: "gain-fixpoint", Candidates: AllModules, Rank: MaxRatio}
	})
}
