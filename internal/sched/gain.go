package sched

import (
	"cmp"
	"math"
	"slices"

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
// Under these readings gain1 and gain3 compute the same schedules. A task
// leaves the pool after its one move, so GAIN3 scores every option
// against the task's least-cost type: every cost increase is >= 0, the
// leftover budget never grows, and an option once unaffordable stays so.
// GAIN3's accepts are therefore one pass over all improving options in
// its selection order, taking each affordable option of an unmoved task
// until the budget is spent, which is GAIN1's definition. Single solves
// of either run GAIN3's candidate heap; sweeps sort the list once and make
// one pass per level (SweepInto).
//
// A fourth registry entry, "gain-fixpoint", lifts the once-per-task rule
// and lets GAIN3 keep re-upgrading tasks until no affordable improving
// move remains. It is stronger than anything in the 2007 family —
// effectively a knapsack-style ratio greedy — and is included as an
// ablation baseline (see DESIGN.md §5).
type GAIN struct {
	Variant int // 1, 2 or 3

	eng engine
	// pass is the sorted upgrade list of the engine binding counted by
	// passBind (0: none built yet); ups is its sort scratch.
	ups      []gainUpgrade
	pass     []gainMove
	passBind uint64
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
// medcc:allocfree
// medcc:deterministic — replayed bit-identical by the differential tests
func (g *GAIN) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return g.oncePerTask(dst, w, m, budget, g.Variant == 2)
}

// gainUpgrade is one improving (task, type) option scored against the
// task's least-cost type.
type gainUpgrade struct {
	w, dt, dc float64 // GainWeight, time decrease, cost increase
	mod, typ  int32
	pos       int32 // position in build order (task order, then option-table order)
}

// byGainWeight is GAIN3's selection order: GainWeight descending, then
// time decrease descending, then build position. Positions are distinct,
// so the order is total and an unstable sort yields the same list as a
// stable sort on the first two keys.
func byGainWeight(a, b gainUpgrade) int {
	switch {
	case a.w > b.w:
		return -1
	case a.w < b.w:
		return 1
	case a.dt > b.dt:
		return -1
	case a.dt < b.dt:
		return 1
	}
	return cmp.Compare(a.pos, b.pos)
}

// SweepInto implements Sweeper: level k is exactly the schedule
// ScheduleInto returns at budgets[k]. GAIN1 and GAIN3 build the improving
// options of every task against the least-cost schedule, sort them
// (byGainWeight), and make one pass per level (gainPass; see the type doc
// for why one pass is GAIN3). The sorted list depends only on the bound
// instance, so it is built once per engine binding and repeat sweeps of
// the same instance reuse it. GAIN2's whole-DAG weights move with the
// schedule, so it solves each level separately.
//
// medcc:deterministic
func (g *GAIN) SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	if g.Variant == 2 {
		return sweepEach(g, dst, w, m, budgets)
	}
	e := &g.eng
	dst, cmin, err := e.startSweep(dst, w, m, budgets)
	if err != nil || len(budgets) == 0 {
		return dst, err
	}
	g.sortUpgrades()
	for k, b := range budgets {
		s := copySchedule(dst[k], e.lc)
		gainPass(s, cmin, g.pass, b, e.resetMoved())
		dst[k] = s
	}
	return dst, nil
}

// ResumeInto implements Sweeper: it returns exactly what ScheduleInto
// returns at budget. A GAIN1/GAIN3 trail of the same (w, m) holds the
// instance's sorted upgrade list, valid at every budget, so the solve is
// one pass over it; any other trail, and every GAIN2 solve, runs cold.
//
// medcc:allocfree
// medcc:deterministic — resumed solves are differential-tested against
// ScheduleInto
func (g *GAIN) ResumeInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, tr *Trail) (workflow.Schedule, error) {
	if g.Variant == 2 || !tr.resumable(gainTrail, w, m, budget) {
		return g.ScheduleInto(dst, w, m, budget)
	}
	s, cmin, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	g.eng.bind(w, m)
	gainPass(s, cmin, tr.pass, budget, g.eng.resetMoved())
	return s, nil
}

// resumeTrail solves one SweepGrid level: every level shares one trail,
// a copy of the sorted list, built at the first level.
//
// medcc:coldpath — allocates the level's schedule and the trail.
func (g *GAIN) resumeTrail(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, from *Trail, _ bool) (workflow.Schedule, *Trail, error) {
	tr := from
	if !tr.resumable(gainTrail, w, m, budget) {
		e := &g.eng
		lc, _, err := checkFeasibleInto(w, m, budget, e.lc)
		if err != nil {
			return nil, nil, err
		}
		e.lc = lc
		e.bind(w, m)
		g.sortUpgrades()
		tr = e.newTrail(gainTrail, math.Inf(-1))
		tr.pass = slices.Clone(g.pass)
	}
	s, err := g.ResumeInto(dst, w, m, budget, tr)
	return s, tr, err
}

// sortUpgrades builds the sorted upgrade list of the bound instance from
// its least-cost schedule e.lc, unless the list of this binding is
// already built.
func (g *GAIN) sortUpgrades() {
	e := &g.eng
	if g.passBind == e.binds {
		return
	}
	lc := e.lc
	g.ups = g.ups[:0]
	for _, i := range e.mods {
		typ, te, ce := e.m.OptionTable(i)
		told, cold := e.m.TE[i][lc[i]], e.m.CE[i][lc[i]]
		for k := range te {
			dt := told - te[k]
			if dt <= dag.Eps {
				break // te is ascending: nothing further improves
			}
			dc := ce[k] - cold
			g.ups = append(g.ups, gainUpgrade{w: ratio(dt, dc), dt: dt, dc: dc, mod: int32(i), typ: typ[k], pos: int32(len(g.ups))})
		}
	}
	slices.SortFunc(g.ups, byGainWeight)
	g.pass = g.pass[:0]
	for _, u := range g.ups {
		g.pass = append(g.pass, gainMove{dc: u.dc, mod: u.mod, typ: u.typ})
	}
	g.passBind = e.binds
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
// the given budget.
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
