package sched

import (
	"math"

	"medcc/internal/workflow"
)

// Optimal solves MED-CC exactly by branch-and-bound over all type
// assignments. MED-CC is NP-complete (Theorem 1 of the paper), so this is
// only practical for the small instances of the paper's optimality study
// and its extended sizes (m <= ~14, n = 3); the MaxNodes guard keeps
// runaway instances from hanging.
//
// The search is one depth-first pass that explores, per schedulable
// module, only the dominance-pruned (TE, CE) type options in TE-ascending
// order, so the first leaf of every subtree is its all-fastest
// completion. The incumbent starts as the Critical-Greedy schedule, and a
// leaf replaces it only with a lower MED, or an equal MED at strictly
// lower cost. Every bound is an exact comparison that cuts a subtree only
// when none of its leaves could replace the incumbent, so a search that
// completes (Truncated false) returns a schedule of minimum MED and,
// among those, minimum cost: the seed when it is one, else the first
// such leaf in DFS order.
type Optimal struct {
	// MaxNodes bounds the number of search nodes expanded; 0 means the
	// default of 50 million. A search that needs more stops with exactly
	// MaxNodes expanded, returns the best incumbent found so far
	// (possibly non-optimal, but always budget-feasible) and sets
	// Truncated. Where it stops, and so what it returns, depends only on
	// the instance, the budget and MaxNodes.
	MaxNodes int64

	// Truncated reports whether the last Schedule call hit MaxNodes and
	// returned a possibly suboptimal (but feasible) incumbent. Expanded
	// is the number of search nodes the last call expanded.
	Truncated bool
	Expanded  int64

	// eng holds the incremental timing of cur under the invariant
	// "assigned prefix, fastest types for the unassigned suffix", so its
	// makespan lower-bounds every leaf below the current node and is
	// exact at a leaf.
	eng engine

	// cg computes the Critical-Greedy schedule used as the incumbent
	// seed: it is near-optimal, so the search starts with a bound that
	// prunes most of the tree before the first leaf. The seed is just the
	// first candidate under the exact order — any leaf with lower MED, or
	// equal MED at strictly lower cost, still replaces it.
	cg    *Greedy
	seedS workflow.Schedule

	// Per-position search tables, rebuilt each call into reused storage:
	// for schedulable position k, the dominance-pruned type options live
	// in optIdx[optOff[k]:optOff[k+1]], sorted by TE ascending (ties by
	// CE, then type index) — for surviving options TE ascending means CE
	// strictly descending. optTE/optCE mirror the option times and costs;
	// suffixMin[k] is the cheapest possible cost of positions k..end.
	optIdx       []int
	optTE, optCE []float64
	optOff       []int
	suffixMin    []float64

	budget float64
	limit  int64
	cur    workflow.Schedule // the assignment being explored

	// The incumbent: the returned schedule, its MED and its cost.
	best      workflow.Schedule
	med, cost float64
}

// Name implements Scheduler.
func (o *Optimal) Name() string { return "optimal" }

// WasTruncated implements TruncationReporter.
func (o *Optimal) WasTruncated() bool { return o.Truncated }

// Schedule implements Scheduler. It returns a schedule with the minimum
// makespan among all schedules of cost <= budget; ties are broken toward
// lower cost, then toward the Critical-Greedy seed, then toward the first
// such schedule in DFS order.
func (o *Optimal) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return o.ScheduleInto(nil, w, m, budget)
}

// defaultMaxNodes is the expansion budget when MaxNodes is zero.
const defaultMaxNodes = 50_000_000

// ScheduleInto implements IntoScheduler: the search runs in reused scratch
// (engine, option tables, partial schedule), so repeated solves of the
// same instance are allocation-free in steady state.
//
// medcc:deterministic — replayed bit-identical by the differential tests
func (o *Optimal) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	o.Truncated, o.Expanded = false, 0
	e := &o.eng
	e.bind(w, m)
	if err := e.feasible(budget); err != nil {
		return nil, err
	}
	lc := e.lc
	o.buildBounds()

	// Incumbent seed: the Critical-Greedy schedule, budget-feasible by
	// construction and near-optimal in MED, so the search opens with a
	// bound that already prunes most of the tree.
	if o.cg == nil {
		o.cg = CriticalGreedy()
	}
	seed, err := o.cg.ScheduleInto(o.seedS, w, m, budget)
	if err != nil {
		seed = lc // cannot happen after the feasibility check; stay safe
	} else {
		o.seedS = seed
	}
	if err := e.resetTiming(seed); err != nil {
		return nil, err
	}
	if len(dst) == len(lc) {
		o.best = dst
	} else if len(o.best) != len(lc) {
		o.best = make(workflow.Schedule, len(lc))
	}
	copy(o.best, seed)
	o.med, o.cost = e.t.Makespan, m.Cost(seed)

	// The root: every schedulable module on its fastest option.
	o.cur = copySchedule(o.cur, lc)
	for k, i := range e.mods {
		o.cur[i] = o.optIdx[o.optOff[k]]
	}
	if err := e.resetTiming(o.cur); err != nil {
		return nil, err
	}
	o.budget = budget
	o.limit = o.MaxNodes
	if o.limit == 0 {
		o.limit = defaultMaxNodes
	}
	o.dfs(0, 0)
	return o.best, nil
}

// buildBounds fills the per-position option tables from the matrices.
// For each schedulable module the types are sorted by (TE, CE, index)
// ascending and a sweep keeps only the Pareto frontier — a type survives
// iff no other type is at least as fast and at least as cheap (exact ties
// keep the lowest index). A dropped type can never improve the optimum:
// replacing it with its dominator never raises the makespan or the cost,
// so the (MED, cost) optimum over the pruned tree equals the optimum over
// the full tree.
func (o *Optimal) buildBounds() {
	e := &o.eng
	m := e.m
	mods := e.mods
	n := len(m.Catalog)
	np := len(mods)
	if cap(o.optOff) < np+1 {
		o.optOff = make([]int, np+1)
		o.suffixMin = make([]float64, np+1)
	}
	o.optOff = o.optOff[:np+1]
	o.suffixMin = o.suffixMin[:np+1]
	if cap(o.optIdx) < np*n {
		o.optIdx = make([]int, np*n)
		o.optTE = make([]float64, np*n)
		o.optCE = make([]float64, np*n)
	}
	o.optIdx = o.optIdx[:np*n]
	o.optTE = o.optTE[:np*n]
	o.optCE = o.optCE[:np*n]

	off := 0
	for k, i := range mods {
		o.optOff[k] = off
		te, ce := m.TE[i], m.CE[i]
		// Insertion sort of the type indices by (TE, CE, index): n is a
		// single-digit catalog size, and in-place insertion keeps the
		// steady-state path allocation-free.
		idx := o.optIdx[off : off : off+n]
		for j := 0; j < n; j++ {
			p := len(idx)
			idx = idx[:p+1]
			for p > 0 {
				q := idx[p-1]
				if te[q] < te[j] || (te[q] <= te[j] && ce[q] <= ce[j]) {
					break
				}
				idx[p] = q
				p--
			}
			idx[p] = j
		}
		// Pareto sweep: with TE ascending, a type survives iff its CE is
		// strictly below every faster type's CE.
		w := off
		bestCE := math.Inf(1)
		for _, j := range idx {
			if ce[j] < bestCE {
				o.optIdx[w] = j
				o.optTE[w] = te[j]
				o.optCE[w] = ce[j]
				bestCE = ce[j]
				w++
			}
		}
		off = w
	}
	o.optOff[np] = off

	// suffixMin[k] = cheapest completion cost of positions k..end; with CE
	// strictly descending over each option run, the minimum is the last
	// surviving option's cost.
	o.suffixMin[np] = 0
	for k := np - 1; k >= 0; k-- {
		o.suffixMin[k] = o.suffixMin[k+1] + o.optCE[o.optOff[k+1]-1]
	}
}

// dfs expands the node that assigns positions depth.. below the assigned
// prefix of cur, whose cost is cost, and replaces the incumbent with any
// better leaf under the exact (MED, cost, first-found) order. Each call
// is one expansion of the MaxNodes budget. Bounds are exact (strict float
// comparisons): a node is cut only when every leaf below it provably
// loses to the incumbent.
//
// medcc:allocfree
func (o *Optimal) dfs(depth int, cost float64) {
	if o.Expanded == o.limit {
		o.Truncated = true
		return
	}
	o.Expanded++
	e := &o.eng
	bnd := o.med
	mk := e.t.Makespan
	if mk > bnd {
		return // even the all-fastest completion loses to the incumbent
	}
	mods := e.mods
	if depth == len(mods) {
		// The suffix is empty: mk is exactly cur's makespan, and mk <=
		// o.med here, so the leaf wins on lower MED or on equal MED at
		// strictly lower cost.
		if mk < o.med || cost < o.cost {
			o.med, o.cost = mk, cost
			copy(o.best, o.cur)
		}
		return
	}
	i := mods[depth]
	// Critical path through i: EST[i] cannot drop and the i-to-exit tail
	// (Tail[i], which excludes i's own duration) cannot shrink when the
	// suffix slows down, so est+TE+tail lower-bounds every leaf below a
	// branch; with options TE-ascending, the first hopeless branch ends
	// the level.
	est := e.t.EST[i]
	tail := e.t.Tail[i]
	lo, hi := o.optOff[depth], o.optOff[depth+1]
	rem := o.suffixMin[depth+1]
	if depth+1 == len(mods) {
		// Last position: every child is a leaf, so evaluate the options
		// with non-mutating trial probes instead of UpdateNode+recursion.
		// Surviving options have strictly ascending TE, so the makespan is
		// non-decreasing and the cost strictly decreasing across r: the
		// node's best leaf under the (MED, cost) order is the cheapest
		// option on the minimum-makespan plateau — exactly what the
		// recursive leaf rule would keep.
		bestR, bestMk := -1, 0.0
		for r := lo; r < hi; r++ {
			if cost+o.optCE[r]+rem > o.budget+costEps {
				continue // over budget; later options are strictly cheaper
			}
			if est+o.optTE[r]+tail > bnd {
				break
			}
			mk2 := e.t.WhatIfMakespan(i, o.optTE[r])
			if mk2 > bnd || (bestR >= 0 && mk2 > bestMk) {
				break // makespan only grows from here
			}
			bestR, bestMk = r, mk2
		}
		if bestR >= 0 {
			// bestMk <= o.med here, so the candidate wins on lower MED or
			// on equal MED at strictly lower cost.
			c2 := cost + o.optCE[bestR]
			if bestMk < o.med || c2 < o.cost {
				o.med, o.cost = bestMk, c2
				copy(o.best, o.cur)
				o.best[i] = o.optIdx[bestR]
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		c2 := cost + o.optCE[r]
		if c2+rem > o.budget+costEps {
			continue // over budget; later options are strictly cheaper
		}
		if est+o.optTE[r]+tail > bnd {
			break
		}
		o.cur[i] = o.optIdx[r]
		e.t.UpdateNode(i, o.optTE[r])
		o.dfs(depth+1, c2)
		bnd = o.med
	}
	// Restore the fastest type so the invariant holds for the parent's
	// remaining siblings.
	e.t.UpdateNode(i, o.optTE[lo])
}

func init() {
	Register("optimal", func() Scheduler { return &Optimal{} })
}
