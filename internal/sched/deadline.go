package sched

import (
	"errors"
	"fmt"
	"math"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// ErrDeadline reports a deadline below the fastest schedule's makespan, so
// no feasible schedule exists for the dual problem.
var ErrDeadline = errors.New("sched: deadline below minimum achievable makespan")

// The dual of MED-CC — minimize total cost subject to an end-to-end
// deadline — is the problem the deadline-constrained literature the paper
// surveys (Yu et al.'s deadline distribution, Abrishami's partial critical
// paths) addresses. These solvers make the duality executable: sweeping
// budgets with Critical-Greedy and sweeping deadlines with DeadlineLoss
// trace the two sides of the same delay/cost Pareto front.

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

// OptimalDeadline solves the dual exactly by branch and bound: the
// minimum-cost schedule whose makespan is within the deadline. Practical
// for the same instance sizes as Optimal. maxNodes bounds the search
// nodes expanded (0 means 50 million); a search that needs more returns
// the incumbent, feasible but not proven cheapest, with Truncated set.
func OptimalDeadline(w *workflow.Workflow, m *workflow.Matrices, deadline float64, maxNodes int64) (*Result, error) {
	fastest := m.Fastest(w)
	evFast, err := w.Evaluate(m, fastest, nil)
	if err != nil {
		return nil, err
	}
	if !(evFast.Makespan <= deadline+dag.Eps) {
		return nil, fmt.Errorf("%w: deadline %.6g < fastest makespan %.6g", ErrDeadline, deadline, evFast.Makespan)
	}
	mods := w.Schedulable()
	n := len(m.Catalog)

	// Bounds: cheapest completion cost and fastest completion types.
	minCost := make([]float64, len(mods))
	fastType := make([]int, len(mods))
	for k, i := range mods {
		minCost[k] = math.Inf(1)
		best := 0
		for j := 0; j < n; j++ {
			if m.CE[i][j] < minCost[k] {
				minCost[k] = m.CE[i][j]
			}
			if m.TE[i][j] < m.TE[i][best] {
				best = j
			}
		}
		fastType[k] = best
	}
	suffixMin := make([]float64, len(mods)+1)
	for k := len(mods) - 1; k >= 0; k-- {
		suffixMin[k] = suffixMin[k+1] + minCost[k]
	}

	bestS := fastest.Clone()
	bestCost := evFast.Cost
	bestMED := evFast.Makespan

	limit := maxNodes
	if limit == 0 {
		limit = 50_000_000
	}
	var expanded int64

	cur := fastest.Clone()
	// Incremental makespan lower bound: the timing is maintained under the
	// invariant "assigned prefix of cur, fastest types for the unassigned
	// suffix", so t.Makespan IS the bound — any completion's makespan is at
	// least the one where the suffix runs at the fastest types. Each branch
	// assignment re-relaxes one node suffix instead of rebuilding the DAG
	// pass. (fastType may break time-ties differently from Fastest, but
	// the execution times — all the bound sees — are identical.)
	t, err := dag.NewTiming(w.Graph(), m.Times(cur), nil)
	if err != nil {
		return nil, err
	}

	var dfs func(depth int, cost float64)
	dfs = func(depth int, cost float64) {
		expanded++
		if expanded > limit {
			return
		}
		if cost+suffixMin[depth] >= bestCost-costEps {
			return // cannot beat the incumbent's cost
		}
		if t.Makespan > deadline+dag.Eps {
			return // no completion meets the deadline
		}
		if depth == len(mods) {
			// The suffix is empty, so the timing is exactly cur's.
			if t.Makespan <= deadline+dag.Eps {
				copy(bestS, cur)
				bestCost = cost
				bestMED = t.Makespan
			}
			return
		}
		i := mods[depth]
		for j := 0; j < n; j++ {
			cur[i] = j
			t.UpdateNode(i, m.TE[i][j])
			dfs(depth+1, cost+m.CE[i][j])
		}
		cur[i] = fastest[i]
		t.UpdateNode(i, m.TE[i][fastest[i]])
	}
	dfs(0, 0)
	return &Result{Schedule: bestS, MED: bestMED, Cost: bestCost, Truncated: expanded > limit}, nil
}
