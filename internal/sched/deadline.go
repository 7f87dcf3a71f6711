package sched

import (
	"errors"
	"fmt"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// ErrDeadline reports a deadline below the fastest schedule's makespan, so
// no feasible schedule exists for the dual problem.
var ErrDeadline = errors.New("sched: deadline below minimum achievable makespan")

// The dual of MED-CC — minimize total cost subject to an end-to-end
// deadline — is the problem the deadline-constrained literature the paper
// surveys (Yu et al.'s deadline distribution, Abrishami's partial critical
// paths) addresses. DeadlineLoss and the exact Optimal.Deadline make the
// duality executable: sweeping budgets with Critical-Greedy and sweeping
// deadlines with DeadlineLoss trace the two sides of the same delay/cost
// Pareto front.

// DeadlineLoss minimizes cost under a deadline with a LOSS-style greedy:
// start from the fastest schedule and repeatedly apply the downgrade that
// saves the most money while keeping the whole-DAG makespan within the
// deadline (ties: the smaller makespan increase).
func DeadlineLoss(w *workflow.Workflow, m *workflow.Matrices, deadline float64) (*Result, error) {
	if !m.HasOptionTable() {
		return nil, ErrNoOptions
	}
	s := m.Fastest(w)
	ev, err := w.Evaluate(m, s, nil)
	if err != nil {
		return nil, err
	}
	// Negated so a NaN deadline is rejected: no makespan meets it.
	if !(ev.Makespan <= deadline+dag.Eps) {
		return nil, fmt.Errorf("%w: deadline %.6g < fastest makespan %.6g", ErrDeadline, deadline, ev.Makespan)
	}
	var e engine
	e.bind(w, m)
	if err := e.resetTiming(s); err != nil {
		return nil, err
	}
	cost := ev.Cost
	cur := ev.Makespan
	for {
		bi, bj := -1, -1
		var bestSave, bestDM float64
		for _, i := range e.mods {
			for _, j := range e.m.Options(i) {
				if j == s[i] {
					continue
				}
				save := m.CE[i][s[i]] - m.CE[i][j]
				if save <= costEps {
					continue
				}
				mk := e.t.WhatIfMakespan(i, m.TE[i][j])
				if mk > deadline+dag.Eps {
					continue
				}
				dm := mk - cur
				if bi == -1 || save > bestSave+costEps ||
					(save >= bestSave-costEps && dm < bestDM-dag.Eps) {
					bi, bj, bestSave, bestDM = i, j, save, dm
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		cost -= bestSave
		cur += bestDM
		e.updateNode(bi, bj)
	}
	return &Result{Schedule: s, MED: cur, Cost: cost}, nil
}
