package sched

import (
	"sort"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// ParetoPoint is one non-dominated (cost, MED) trade-off.
type ParetoPoint struct {
	Budget   float64 // the budget that produced the point
	Cost     float64 // actual spend (<= Budget)
	MED      float64
	Schedule workflow.Schedule
}

// ParetoFront traces the delay/cost trade-off curve of a workflow by
// sweeping `points` budgets across [Cmin, Cmax] with the given scheduler
// and keeping the non-dominated outcomes (no other point is both cheaper
// and faster). The front is returned in increasing cost order; for an
// exact front on small instances pass the "optimal" scheduler.
func ParetoFront(s Scheduler, w *workflow.Workflow, m *workflow.Matrices, points int) ([]ParetoPoint, error) {
	if points < 2 {
		points = 2
	}
	cmin, cmax := m.BudgetRange(w)
	var raw []ParetoPoint
	for k := 0; k < points; k++ {
		b := BudgetAt(cmin, cmax, float64(k)/float64(points-1))
		res, err := Run(s, w, m, b)
		if err != nil {
			return nil, err
		}
		raw = append(raw, ParetoPoint{Budget: b, Cost: res.Cost, MED: res.MED, Schedule: res.Schedule})
	}
	// Keep the lower-left staircase: sort by cost, then sweep keeping
	// strictly improving MED.
	sort.SliceStable(raw, func(a, b int) bool {
		// medcc:lint-ignore floateq — comparator needs a strict weak order; epsilon would break transitivity.
		if raw[a].Cost != raw[b].Cost {
			return raw[a].Cost < raw[b].Cost
		}
		return raw[a].MED < raw[b].MED
	})
	var front []ParetoPoint
	bestMED := 0.0
	for _, p := range raw {
		if len(front) == 0 || p.MED < bestMED-dag.Eps {
			// Budgets landing on the same spend within float jitter
			// collapse to their fastest schedule: replacing the
			// incumbent keeps the staircase strictly improving on both
			// axes instead of emitting near-duplicate cost entries.
			if len(front) > 0 && sameCost(front[len(front)-1].Cost, p.Cost) {
				front[len(front)-1] = p
			} else {
				front = append(front, p)
			}
			bestMED = p.MED
		}
	}
	return front, nil
}
