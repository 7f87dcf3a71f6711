package sched

import (
	"medcc/internal/workflow"
)

// BudgetDist is the budget-distribution heuristic family found in the
// deadline/budget literature that followed the paper (BDHEFT-style):
// instead of reasoning about the critical path, it splits the budget
// *surplus* (B - Cmin) over modules in proportion to their workloads,
// upgrades each module to the fastest type its share affords, and then
// sweeps leftover share forward. It is cheap — two passes, no critical
// path recomputation — and serves as the "budget-aware but
// structure-blind" baseline in the ablation story: it knows how much each
// module may spend but not which modules matter.
type BudgetDist struct{}

// Name implements Scheduler.
func (BudgetDist) Name() string { return "budget-dist" }

// Schedule implements Scheduler.
func (BudgetDist) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, cmin, err := checkFeasible(w, m, budget)
	if err != nil {
		return nil, err
	}
	mods := w.Schedulable()
	totalWL := 0.0
	for _, i := range mods {
		totalWL += w.Module(i).Workload
	}
	surplus := budget - cmin
	if totalWL <= 0 || surplus <= 0 {
		return s, nil
	}
	// Pass 1: each module gets a workload-proportional share of the
	// surplus and takes the fastest upgrade within it; unused share
	// carries forward to the next module (modules are visited in
	// topological index order, heaviest shares first is deliberately
	// NOT done — the family distributes blindly).
	carry := 0.0
	spend := func(i int, allowance float64) float64 {
		bestJ, bestT := s[i], m.TE[i][s[i]]
		bestDC := 0.0
		for j := range m.Catalog {
			dc := m.CE[i][j] - m.CE[i][s[i]]
			if dc > allowance+costEps {
				continue
			}
			if m.TE[i][j] < bestT-1e-12 || (m.TE[i][j] <= bestT+1e-12 && dc < bestDC) {
				bestJ, bestT, bestDC = j, m.TE[i][j], dc
			}
		}
		s[i] = bestJ
		return allowance - bestDC
	}
	for _, i := range mods {
		share := float64(surplus*(w.Module(i).Workload/totalWL)) + carry
		carry = spend(i, share)
	}
	// Pass 2: one more sweep with whatever accumulated, so rounding
	// leftovers are not wasted.
	for _, i := range mods {
		if carry <= costEps {
			break
		}
		carry = spend(i, carry)
	}
	return s, nil
}

func init() {
	Register("budget-dist", func() Scheduler { return BudgetDist{} })
}
