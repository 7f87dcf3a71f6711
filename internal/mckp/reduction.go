package mckp

import (
	"errors"
	"math"

	"medcc/internal/workflow"
)

// FromPipeline builds the Theorem 1 reduction: a pipeline-structured
// MED-CC instance maps to MCKP with one class per schedulable module and
// one item per VM type, item weight = execution cost C(E_ij) and item
// profit = K - T(E_ij) for a constant K >= max T(E_ij). Capacity is the
// budget. It returns the problem and the constant K, from which the
// minimum total execution time is m*K - optimalProfit.
//
// The workflow must be a pipeline only in the sense the theorem needs:
// zero transfer times and a total execution time equal to the sum of
// module times — i.e. every schedulable module lies on the single chain.
func FromPipeline(w *workflow.Workflow, m *workflow.Matrices, budget float64) (*Problem, float64, error) {
	if !IsPipeline(w) {
		return nil, 0, errors.New("mckp: workflow is not a pipeline")
	}
	mods := w.Schedulable()
	K := 0.0
	for _, i := range mods {
		for j := range m.Catalog {
			if m.TE[i][j] > K {
				K = m.TE[i][j]
			}
		}
	}
	K++ // strictly dominate every T(E_ij), keeping profits positive
	p := &Problem{Capacity: budget}
	for _, i := range mods {
		cls := make([]Item, len(m.Catalog))
		for j := range m.Catalog {
			cls[j] = Item{Profit: K - m.TE[i][j], Weight: m.CE[i][j]}
		}
		p.Classes = append(p.Classes, cls)
	}
	return p, K, nil
}

// IsPipeline reports whether every module of w lies on one simple chain
// (each node has at most one predecessor and one successor, with a single
// source and sink when non-empty).
func IsPipeline(w *workflow.Workflow) bool {
	g := w.Graph()
	n := g.NumNodes()
	if n == 0 {
		return false
	}
	sources := 0
	for i := 0; i < n; i++ {
		if g.InDegree(i) > 1 || g.OutDegree(i) > 1 {
			return false
		}
		if g.InDegree(i) == 0 {
			sources++
		}
	}
	return sources == 1 && g.NumEdges() == n-1
}

// PipelineOptimal solves MED-CC exactly on a pipeline via the MCKP
// reduction with branch and bound, returning the optimal schedule and its
// total execution time. It is the independent oracle used to validate the
// generic Optimal scheduler (DESIGN.md experiment A2).
//
// medcc:testoracle — Theorem 1's executable reduction; TestTheorem1Equivalence checks sched.Optimal against it.
func PipelineOptimal(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, float64, error) {
	p, K, err := FromPipeline(w, m, budget)
	if err != nil {
		return nil, 0, err
	}
	choice, profit, err := SolveBB(p)
	if err != nil {
		return nil, 0, err
	}
	mods := w.Schedulable()
	s := make(workflow.Schedule, w.NumModules())
	for i := range s {
		s[i] = -1
	}
	for k, i := range mods {
		s[i] = choice[k]
	}
	total := float64(float64(len(mods))*K) - profit
	// Guard against float drift between the two formulations.
	check := 0.0
	for k, i := range mods {
		check += m.TE[i][choice[k]]
		_ = k
	}
	if math.Abs(check-total) > 1e-6 {
		total = check
	}
	return s, total, nil
}
