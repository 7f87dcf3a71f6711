package sched

import (
	"sort"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// LOSS is the downgrade-direction counterpart of GAIN from Sakellariou et
// al.: start from the makespan-optimal schedule and repeatedly downgrade
// the assignment with the smallest LossWeight — time increase per unit of
// cost saved — until the total cost fits the budget.
//
// In the MED-CC model every module runs on its own (unbounded) VM
// instance, so the makespan-optimal starting schedule produced by HEFT
// degenerates to mapping each module to its fastest type; Fastest() is
// therefore the exact HEFT-equivalent starting point here.
//
// Variant 1 measures the task-local execution time increase; variant 2
// measures the whole-DAG makespan increase of a tentative downgrade;
// variant 3 mirrors GAIN1's static discipline — all LossWeights are
// computed once against the fastest schedule, downgrades applied in one
// ascending-weight pass (each task downgraded at most once) and topped up
// with per-task least-cost drops if the budget still does not hold.
type LOSS struct {
	Variant int // 1, 2 or 3

	eng engine
}

// Name implements Scheduler.
func (l *LOSS) Name() string {
	switch l.Variant {
	case 2:
		return "loss2"
	case 3:
		return "loss3"
	}
	return "loss1"
}

// Schedule implements Scheduler.
func (l *LOSS) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return l.ScheduleInto(nil, w, m, budget)
}

// ScheduleInto implements IntoScheduler. LOSS2's whole-DAG LossWeights are
// probed with WhatIfMakespan against a single incremental timing instead of
// one trial Timing per candidate.
//
// medcc:allocfree — holds for the iterative LOSS1/LOSS2 paths; LOSS3's
// staticPass is per-call setup and opts out via medcc:coldpath.
// medcc:deterministic — replayed bit-identical by the differential tests
func (l *LOSS) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	e := &l.eng
	e.bind(w, m)
	if err := e.feasible(budget); err != nil {
		return nil, err
	}
	if l.Variant == 3 {
		return l.staticPass(dst, w, m, budget)
	}
	s := m.FastestInto(w, dst)
	ctmp := m.Cost(s)
	if l.Variant != 2 {
		// LOSS1's task-local LossWeights are independent of both the
		// leftover budget and the timing, so the downgrade loop runs off
		// the candidate heap: one option scan per module up front, then
		// one re-scan of the single downgraded module per accept.
		e.ct.start(e, candLoss)
		e.ct.rebuild(s, 0, actAll)
		for ctmp > budget+costEps {
			i, j, save, ok := e.ct.popBest(s, 0, actAll)
			if !ok {
				// No downgrade available yet over budget: impossible,
				// since Fastest can always be downgraded toward
				// LeastCost whose cost is <= budget (checked above).
				break
			}
			s[i] = j
			ctmp -= save
			e.ct.evalModule(i, s, 0)
			if e.ct.bj[i] >= 0 {
				e.ct.push(i)
			}
		}
		return s, nil
	}
	if err := e.resetTiming(s); err != nil {
		return nil, err
	}
	for ctmp > budget+costEps {
		bi, bj := -1, -1
		var bestW, bestDC float64
		for _, i := range e.mods {
			for _, j := range e.m.Options(i) {
				if j == s[i] {
					continue
				}
				dc := m.CE[i][s[i]] - m.CE[i][j] // cost saved
				if dc <= costEps {
					continue
				}
				// Time lost: the whole-DAG makespan increase of the
				// tentative downgrade.
				dt := e.t.WhatIfMakespan(i, m.TE[i][j]) - e.t.Makespan
				if dt < 0 {
					dt = 0 // cheaper and no slower: ideal downgrade
				}
				wgt := dt / dc
				if bi == -1 || wgt < bestW-dag.Eps ||
					(wgt <= bestW+dag.Eps && dc > bestDC+costEps) {
					bi, bj, bestW, bestDC = i, j, wgt, dc
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		ctmp -= bestDC
		e.updateNode(bi, bj)
	}
	return s, nil
}

// staticPass implements LOSS3: LossWeights precomputed against the
// fastest schedule, sorted ascending (cheapest time lost per unit saved
// first), one downgrade per task; if the budget still does not hold after
// the pass, remaining tasks drop to their least-cost types in weight
// order, which always lands at or below Cmin <= budget.
//
// medcc:coldpath — the precomputed downgrade list and its sort allocate by
// design; LOSS3 is a baseline, not a steady-state path.
func (l *LOSS) staticPass(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	e := &l.eng
	s := m.FastestInto(w, dst)
	ctmp := m.Cost(s)
	type downgrade struct {
		i, j   int
		weight float64
		save   float64
	}
	var downs []downgrade
	for _, i := range e.mods {
		for _, j := range e.m.Options(i) {
			if j == s[i] {
				continue
			}
			save := m.CE[i][s[i]] - m.CE[i][j]
			if save <= costEps {
				continue
			}
			dt := m.TE[i][j] - m.TE[i][s[i]]
			if dt < 0 {
				dt = 0
			}
			downs = append(downs, downgrade{i, j, dt / save, save})
		}
	}
	sort.SliceStable(downs, func(a, b int) bool {
		// medcc:lint-ignore floateq — comparator needs a strict weak order; exact rank split, then save tie-break.
		if downs[a].weight != downs[b].weight {
			return downs[a].weight < downs[b].weight
		}
		return downs[a].save > downs[b].save
	})
	moved := e.resetMoved()
	for _, d := range downs {
		if ctmp <= budget+costEps {
			break
		}
		if moved[d.i] {
			continue
		}
		ctmp -= m.CE[d.i][s[d.i]] - m.CE[d.i][d.j]
		s[d.i] = d.j
		moved[d.i] = true
	}
	// Top-up: if one downgrade per task was not enough, fall through to
	// least-cost types in the same weight order.
	for _, d := range downs {
		if ctmp <= budget+costEps {
			break
		}
		save := m.CE[d.i][s[d.i]] - m.CE[d.i][d.j]
		if save <= costEps {
			continue
		}
		ctmp -= save
		s[d.i] = d.j
	}
	return s, nil
}

func init() {
	Register("loss1", func() Scheduler { return &LOSS{Variant: 1} })
	Register("loss2", func() Scheduler { return &LOSS{Variant: 2} })
	Register("loss3", func() Scheduler { return &LOSS{Variant: 3} })
}
