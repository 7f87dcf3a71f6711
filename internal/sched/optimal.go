package sched

import (
	"fmt"
	"math"

	"medcc/internal/dag"
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
// such leaf in DFS order. Deadline solves the dual on the same engine.
type Optimal struct {
	// MaxNodes bounds the number of search nodes expanded; 0 means the
	// default of 50 million. A search that needs more stops with exactly
	// MaxNodes expanded, returns the best incumbent found so far
	// (possibly non-optimal, but always within the budget or deadline)
	// and sets Truncated. Where it stops, and so what it returns, depends
	// only on the instance, the budget or deadline and MaxNodes.
	MaxNodes int64

	// Truncated reports whether the last Schedule or Deadline call hit
	// MaxNodes and returned a possibly suboptimal (but feasible)
	// incumbent. Expanded is the number of search nodes the last call
	// expanded.
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
	// for schedulable position k, the Pareto-frontier type options live
	// in optIdx[optOff[k]:optOff[k+1]], sorted by TE strictly ascending
	// and so by CE strictly descending. optTE/optCE mirror the option
	// times and costs; suffixMin[k] is the cheapest possible cost of
	// positions k..end.
	optIdx       []int
	optTE, optCE []float64
	optOff       []int
	suffixMin    []float64

	// budget caps a Schedule search's cost; deadline (the caller's plus
	// dag.Eps) caps a Deadline search's makespan.
	budget, deadline float64
	limit            int64
	cur              workflow.Schedule // the assignment being explored

	// The incumbent: its schedule, MED and cost. best is the caller's
	// result storage (dst or a fresh slice), never solver scratch, so a
	// returned schedule survives later solves.
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
// same instance into the same dst are allocation-free in steady state.
// The result is written to dst when it has the right length and to a
// fresh schedule otherwise.
//
// medcc:deterministic — replayed bit-identical by the differential tests
func (o *Optimal) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	if err := o.start(w, m, budget); err != nil {
		return nil, err
	}
	e := &o.eng
	lc := e.lc

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
	o.best = dst
	if len(dst) != len(lc) {
		o.best = make(workflow.Schedule, len(lc))
	}
	copy(o.best, seed)
	o.med, o.cost = e.t.Makespan, m.Cost(seed)

	if err := o.root(); err != nil {
		return nil, err
	}
	o.budget = budget
	o.dfs(0, 0)
	return o.best, nil
}

// Deadline solves the dual of MED-CC exactly: a schedule of least cost
// whose makespan is within deadline (plus dag.Eps), on the engine,
// option tables and MaxNodes rule of Schedule. The search tries options
// cheapest first from the all-fastest incumbent, and a leaf replaces the
// incumbent only at lower cost, or at equal cost and lower MED, so a
// search that completes returns the least cost, then the least MED,
// then the first such schedule found. A search cut short by MaxNodes
// returns the incumbent, within the deadline but not proven cheapest,
// with Truncated set. It returns an error wrapping ErrDeadline when even
// the fastest schedule misses the deadline.
//
// medcc:deterministic — pinned to brute force by the deadline tests
func (o *Optimal) Deadline(w *workflow.Workflow, m *workflow.Matrices, deadline float64) (*Result, error) {
	// Every schedule fits an infinite budget, so this fails only on
	// matrices without an option table.
	if err := o.start(w, m, math.Inf(1)); err != nil {
		return nil, err
	}
	if err := o.root(); err != nil {
		return nil, err
	}
	mk := o.eng.t.Makespan
	// Negated so a NaN deadline is rejected: no makespan meets it.
	if !(mk <= deadline+dag.Eps) {
		return nil, fmt.Errorf("%w: deadline %.6g < fastest makespan %.6g", ErrDeadline, deadline, mk)
	}
	o.best = o.cur.Clone()
	o.med, o.cost = mk, m.Cost(o.cur)
	o.deadline = deadline + dag.Eps
	o.dfsDeadline(0, 0)
	return &Result{Schedule: o.best, MED: o.med, Cost: o.cost, Truncated: o.Truncated}, nil
}

// start resets the node counters, binds the engine, checks the budget
// against Cmin (and the matrices for an option table) and fills the
// option tables: the setup both searches share.
func (o *Optimal) start(w *workflow.Workflow, m *workflow.Matrices, budget float64) error {
	o.Truncated, o.Expanded = false, 0
	o.limit = o.MaxNodes
	if o.limit == 0 {
		o.limit = defaultMaxNodes
	}
	e := &o.eng
	e.bind(w, m)
	if err := e.feasible(budget); err != nil {
		return err
	}
	o.buildBounds()
	return nil
}

// root sets cur to the search root, every schedulable module on its
// fastest option, and refreshes the timing to it, so that the timing
// holds the invariant both searches keep.
func (o *Optimal) root() error {
	e := &o.eng
	o.cur = copySchedule(o.cur, e.lc)
	for k, i := range e.mods {
		o.cur[i] = o.optIdx[o.optOff[k]]
	}
	return e.resetTiming(o.cur)
}

// buildBounds fills the per-position option tables from the matrices'
// option table, whose rows hold no dominated type and are sorted by
// (TE, type index). A sweep keeps the Pareto frontier: a row survives
// iff its CE is strictly below every faster row's, and a row of equal
// TE and lower CE replaces the one kept before it, since the option
// table orders equal times by type, not by cost. A dropped type can
// never improve the optimum: replacing it with its dominator never
// raises the makespan or the cost, so the optimum over the pruned tree
// equals the optimum over the full tree.
//
// medcc:floateq-exact — rows of exactly equal time are one option at
// two prices; times that differ by a rounding are distinct options.
func (o *Optimal) buildBounds() {
	e := &o.eng
	np := len(e.mods)
	o.optOff = o.optOff[:0]
	o.optIdx, o.optTE, o.optCE = o.optIdx[:0], o.optTE[:0], o.optCE[:0]
	for _, i := range e.mods {
		off := len(o.optIdx)
		o.optOff = append(o.optOff, off)
		typ, te, ce := e.m.OptionTable(i)
		bestCE := math.Inf(1)
		for r := range typ {
			if !(ce[r] < bestCE) {
				continue
			}
			bestCE = ce[r]
			if k := len(o.optIdx) - 1; k >= off && o.optTE[k] == te[r] {
				o.optIdx[k], o.optCE[k] = int(typ[r]), ce[r]
				continue
			}
			o.optIdx = append(o.optIdx, int(typ[r]))
			o.optTE = append(o.optTE, te[r])
			o.optCE = append(o.optCE, ce[r])
		}
	}
	o.optOff = append(o.optOff, len(o.optIdx))

	// suffixMin[k] = cheapest completion cost of positions k..end; with CE
	// strictly descending over each option run, the minimum is the last
	// surviving option's cost.
	if cap(o.suffixMin) < np+1 {
		o.suffixMin = make([]float64, np+1)
	}
	o.suffixMin = o.suffixMin[:np+1]
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

// dfsDeadline is dfs turned around for the dual: options are tried
// cheapest first, a leaf must meet the deadline, and it replaces the
// incumbent at lower cost, or at equal cost and lower MED. The makespan
// bounds are dfs's, and an option whose path through i misses the
// deadline is skipped for the faster ones after it. The cost cut ends
// the level once even the cheapest completion costs more than the
// incumbent by over costEps: suffixMin sums in another order than a
// leaf's cost, so only that slack keeps a tie from being cut.
//
// medcc:allocfree
func (o *Optimal) dfsDeadline(depth int, cost float64) {
	if o.Expanded == o.limit {
		o.Truncated = true
		return
	}
	o.Expanded++
	e := &o.eng
	mk := e.t.Makespan
	if mk > o.deadline {
		return // even the all-fastest completion misses the deadline
	}
	mods := e.mods
	if depth == len(mods) {
		if cost < o.cost || cost <= o.cost && mk < o.med {
			o.med, o.cost = mk, cost
			copy(o.best, o.cur)
		}
		return
	}
	i := mods[depth]
	est := e.t.EST[i]
	tail := e.t.Tail[i]
	lo, hi := o.optOff[depth], o.optOff[depth+1]
	rem := o.suffixMin[depth+1]
	last := depth+1 == len(mods)
	for r := hi - 1; r >= lo; r-- {
		c2 := cost + o.optCE[r]
		if c2+rem > o.cost+costEps {
			break // earlier options cost more still
		}
		if est+o.optTE[r]+tail > o.deadline {
			continue // misses the deadline; earlier options are faster
		}
		if last {
			// Every child is a leaf: probe it without mutating the timing.
			mk2 := e.t.WhatIfMakespan(i, o.optTE[r])
			if mk2 <= o.deadline && (c2 < o.cost || c2 <= o.cost && mk2 < o.med) {
				o.med, o.cost = mk2, c2
				copy(o.best, o.cur)
				o.best[i] = o.optIdx[r]
			}
			continue
		}
		o.cur[i] = o.optIdx[r]
		e.t.UpdateNode(i, o.optTE[r])
		o.dfsDeadline(depth+1, c2)
	}
	// Restore the fastest type so the invariant holds for the parent's
	// remaining siblings (a no-op when no child moved it).
	e.t.UpdateNode(i, o.optTE[lo])
}

func init() {
	Register("optimal", func() Scheduler { return &Optimal{} })
}
