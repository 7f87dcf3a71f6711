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
//     (globally aware, quadratically slower). It is its own type, GAIN2.
//   - GAIN3 re-selects the globally best affordable (task, type) pair at
//     every iteration using task-local weights. This is the variant the
//     MED-CC paper compares against ("the modules with large GainWeight,
//     which is only a local difference ratio, may not have a critical
//     impact on the entire execution time"), reported as the best
//     performer of the group.
//
// Under these readings GAIN1 and GAIN3 are one algorithm, and GAIN is
// registered under both names, "gain1" and "gain3". A task leaves the
// pool after its one move, so GAIN3 scores every option against the
// task's least-cost type: every cost increase is >= 0, the leftover
// budget never grows, and an option once unaffordable stays so. GAIN3's
// accepts are therefore one pass over all improving options in its
// selection order, taking each affordable option of an unmoved task until
// the budget is spent, which is GAIN1's definition. Every solve is one
// such pass (gainPass) over the list, sorted once per engine binding
// (sortUpgrades) or taken from a trail.
//
// A fourth registry entry, "gain-fixpoint", lifts the once-per-task rule
// and lets GAIN3 keep re-upgrading tasks until no affordable improving
// move remains. It is stronger than anything in the 2007 family —
// effectively a knapsack-style ratio greedy — and is included as an
// ablation baseline (see DESIGN.md §5).
type GAIN struct {
	Label string // the registry name it reports: "gain1" or "gain3"

	eng engine
	// pass is the sorted upgrade list of the engine binding counted by
	// passBind (0: none built yet); ups is its sort scratch.
	ups      []gainUpgrade
	pass     []gainMove
	passBind uint64
}

// Name implements Scheduler.
func (g *GAIN) Name() string { return g.Label }

// Schedule implements Scheduler.
func (g *GAIN) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return g.ScheduleInto(nil, w, m, budget)
}

// ScheduleInto implements IntoScheduler: one pass over the sorted
// upgrade list of the bound instance (see the type doc).
//
// medcc:allocfree
// medcc:deterministic — replayed bit-identical by the differential tests
func (g *GAIN) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, cmin, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	g.eng.bind(w, m)
	g.sortUpgrades(s)
	gainPass(s, cmin, g.pass, budget, g.eng.resetMoved())
	return s, nil
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
// ScheduleInto returns at budgets[k], one pass over the sorted list
// (gainPass). The list depends only on the bound instance, so every
// level is independent: a GAIN trail of the same (w, m) holds the list,
// valid at every budget, and a sweep from one passes over it; any other
// sweep uses the list of the engine binding (sortUpgrades). A non-nil
// trails receives one trail at every level: from, or a new trail holding
// a copy of the list (listTrail).
//
// medcc:allocfree
// medcc:deterministic — every call shape is differential-tested against
// ScheduleInto
func (g *GAIN) SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64, from *Trail, trails []*Trail) ([]workflow.Schedule, error) {
	e := &g.eng
	dst, cmin, err := e.startSweep(dst, w, m, budgets)
	if err != nil || len(budgets) == 0 {
		return dst, err
	}
	if !from.resumable(gainTrail, w, m, budgets[0]) {
		g.sortUpgrades(e.lc)
		from = nil
		if trails != nil {
			from = g.listTrail()
		}
	}
	pass := g.pass
	if from != nil {
		pass = from.pass
	}
	for k, b := range budgets {
		s := copySchedule(dst[k], e.lc)
		gainPass(s, cmin, pass, b, e.resetMoved())
		dst[k] = s
		if trails != nil {
			trails[k] = from
		}
	}
	return dst, nil
}

// listTrail returns a trail holding a copy of the bound instance's
// sorted list.
//
// medcc:coldpath — allocates the trail and its list.
func (g *GAIN) listTrail() *Trail {
	tr := g.eng.newTrail(gainTrail, math.Inf(-1))
	tr.pass = slices.Clone(g.pass)
	return tr
}

// sortUpgrades builds the sorted upgrade list of the bound instance from
// its least-cost schedule lc, unless the list of this binding is already
// built. The list holds each task's cost frontier (costFrontier)
// in byGainWeight order: an order-preserving part of the full sorted
// list of improving options on which gainPass takes the same moves at
// every budget.
func (g *GAIN) sortUpgrades(lc workflow.Schedule) {
	e := &g.eng
	if g.passBind == e.binds {
		return
	}
	g.ups = g.ups[:0]
	pos := int32(0)
	for _, i := range e.mods {
		typ, te, ce := e.m.OptionTable(i)
		told, cold := e.m.TE[i][lc[i]], e.m.CE[i][lc[i]]
		first := len(g.ups)
		for k := range te {
			dt := told - te[k]
			if dt <= dag.Eps {
				break // te is ascending: nothing further improves
			}
			dc := ce[k] - cold
			g.ups = append(g.ups, gainUpgrade{w: ratio(dt, dc), dt: dt, dc: dc, mod: int32(i), typ: typ[k], pos: pos})
			pos++
		}
		g.ups = g.ups[:first+costFrontier(g.ups[first:])]
	}
	slices.SortFunc(g.ups, byGainWeight)
	g.pass = g.pass[:0]
	for _, u := range g.ups {
		g.pass = append(g.pass, gainMove{dc: u.dc, mod: u.mod, typ: u.typ})
	}
	g.passBind = e.binds
}

// costFrontier sorts one task's improving options by byGainWeight and
// keeps, in place and in that order, those whose cost increase is
// strictly below that of every earlier option; it returns how many it
// kept. A dropped option can never be taken by gainPass: an earlier
// option of its task costs no more, and when the pass reaches that one
// it either takes it, retiring the task, or finds it unaffordable, and
// since every cost increase is >= 0 the leftover budget only shrinks
// from there, so the dropped option is unaffordable too.
func costFrontier(opts []gainUpgrade) int {
	slices.SortFunc(opts, byGainWeight)
	kept := 0
	for _, u := range opts {
		if kept == 0 || u.dc < opts[kept-1].dc {
			opts[kept] = u
			kept++
		}
	}
	return kept
}

// GAIN2 is the GAIN variant that weighs each (task, type) reassignment
// by the decrease of the whole-DAG makespan over its cost increase (see
// GAIN): pick the best affordable pair each iteration, retiring each task
// after its single reassignment. Its weights move with the schedule, so
// it keeps no trails and sweeps level by level. The weights come from the
// incremental timing's WhatIfMakespan probe instead of a trial Timing per
// candidate, turning its O(candidates x full-DAG-pass) iteration into
// O(candidates x affected-suffix) with zero allocations.
type GAIN2 struct {
	eng engine
}

// Name implements Scheduler.
func (g *GAIN2) Name() string { return "gain2" }

// Schedule implements Scheduler.
func (g *GAIN2) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return g.ScheduleInto(nil, w, m, budget)
}

// ScheduleInto implements IntoScheduler.
//
// medcc:allocfree
// medcc:deterministic — replayed bit-identical by the differential tests
func (g *GAIN2) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	e := &g.eng
	e.bind(w, m)
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

func init() {
	Register("gain1", func() Scheduler { return &GAIN{Label: "gain1"} })
	Register("gain2", func() Scheduler { return &GAIN2{} })
	Register("gain3", func() Scheduler { return &GAIN{Label: "gain3"} })
	Register("gain-fixpoint", func() Scheduler {
		return &Greedy{Label: "gain-fixpoint", Candidates: AllModules, Rank: MaxRatio}
	})
}
