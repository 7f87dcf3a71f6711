package exper

import (
	"medcc/internal/cloud"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// TableIIRow is one schedule of the numerical example: the budget interval
// [BudgetLo, BudgetHi) over which Critical-Greedy produces it, the
// module-to-type mapping (1-based like the paper, entry/exit omitted), and
// the resulting MED and cost.
type TableIIRow struct {
	Index    int
	BudgetLo float64
	BudgetHi float64 // +Inf on the top row
	Mapping  []int
	MED      float64
	Cost     float64
}

// TableII regenerates Table II: all distinct schedules Critical-Greedy
// produces on the §V-B example workflow as the budget varies across
// [Cmin, Cmax], with their budget intervals. Rows are ordered from the
// largest budget (fastest schedule) down, matching the paper's layout.
func TableII() ([]TableIIRow, error) {
	// Sweep the budget at fine granularity and merge runs of identical
	// schedules into intervals. The example's cost quanta are integral,
	// so 1/8 steps are more than fine enough.
	w, m, budgets, err := exampleLevels(0.125)
	if err != nil {
		return nil, err
	}
	_, cmax := m.BudgetRange(w)
	schedules, err := sched.SweepSchedules(sched.CriticalGreedy(), nil, w, m, budgets)
	if err != nil {
		return nil, err
	}
	var rows []TableIIRow
	for i := 0; i < len(budgets); {
		j := i
		for j+1 < len(budgets) && schedules[j+1].Equal(schedules[i]) {
			j++
		}
		hi := cmax
		if j+1 < len(budgets) {
			hi = budgets[j+1]
		}
		ev, err := w.Evaluate(m, schedules[i], nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIIRow{
			BudgetLo: budgets[i],
			BudgetHi: hi,
			Mapping:  paperMapping(w, schedules[i]),
			MED:      ev.Makespan,
			Cost:     ev.Cost,
		})
		i = j + 1
	}
	// Paper numbering: schedule 1 is the fastest (largest budget).
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
	for i := range rows {
		rows[i].Index = i + 1
	}
	if len(rows) > 0 {
		rows[0].BudgetHi = -1 // rendered as infinity
	}
	return rows, nil
}

// paperMapping converts a schedule to the paper's 1-based type indices for
// the schedulable modules only.
func paperMapping(w *workflow.Workflow, s workflow.Schedule) []int {
	var out []int
	for _, i := range w.Schedulable() {
		out = append(out, s[i]+1)
	}
	return out
}

// Fig6Point is one point of the MED-vs-budget staircase of Fig. 6.
type Fig6Point struct {
	Budget float64
	MED    float64
	Cost   float64
}

// Fig6 regenerates the Fig. 6 series: Critical-Greedy's MED at each
// integral budget across [Cmin, Cmax] of the example workflow.
func Fig6() ([]Fig6Point, error) {
	w, m, budgets, err := exampleLevels(1)
	if err != nil {
		return nil, err
	}
	schedules, err := sched.SweepSchedules(sched.CriticalGreedy(), nil, w, m, budgets)
	if err != nil {
		return nil, err
	}
	pts := make([]Fig6Point, 0, len(budgets))
	for k, b := range budgets {
		ev, err := w.Evaluate(m, schedules[k], nil)
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig6Point{Budget: b, MED: ev.Makespan, Cost: ev.Cost})
	}
	return pts, nil
}

// exampleLevels returns the §V-B example workflow, its matrices and the
// budget levels Cmin, Cmin+step, ... up to Cmax that Table II (step 1/8)
// and Fig. 6 (step 1) sweep.
func exampleLevels(step float64) (*workflow.Workflow, *workflow.Matrices, []float64, error) {
	w, cat := workflow.PaperExample()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		return nil, nil, nil, err
	}
	cmin, cmax := m.BudgetRange(w)
	var budgets []float64
	for b := cmin; b <= cmax+float64(step/2); b += step {
		budgets = append(budgets, b)
	}
	return w, m, budgets, nil
}
