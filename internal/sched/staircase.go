package sched

import (
	"fmt"

	"medcc/internal/workflow"
)

// This file materializes the budget→schedule trade-off of one
// (scheduler, workflow, matrices) triple as a finite Staircase: for a
// fixed deterministic scheduler, the result of ScheduleInto is a pure
// function of the budget, so solving a grid of budgets once answers
// every repeat query at those budgets by binary search. The serve
// layer's snapshot-scoped cache is built on this.
//
// Every level is bit-identical to what a direct ScheduleInto call at
// that budget returns. Consecutive levels rebind the same (workflow,
// matrices) pair, so the scheduler's engine binds once and every level
// after the first reuses its scratch.

// BudgetAt maps a grid fraction in [0, 1] onto the absolute budget
// lo + frac*(hi-lo). Both the staircase builder and the serve layer's
// budget_fraction resolution MUST use this one expression: grid hits
// are detected by bit-exact float comparison, so the two sides have to
// round identically. The float64 conversion rounds the product so no
// platform fuses it into the add (an FMA rounds once, not twice).
func BudgetAt(lo, hi, frac float64) float64 { return lo + float64(frac*(hi-lo)) }

// minRefineGap is the smallest fraction-space interval SweepGrid will
// subdivide. 1/4096 is a dyadic, so refined fractions stay exactly
// representable (sums and halvings of dyadics are exact in float64).
const minRefineGap = 1.0 / 4096

// initLevels is the uniform starting grid size. A power-of-two-plus-one
// count puts every fraction on a dyadic (k/2^n), which midpoint
// refinement preserves — so common request fractions (0.5, 0.25,
// 0.125, …) hit the grid bit-exactly.
const initLevels = 9

// GridOptions sizes a SweepGrid build.
type GridOptions struct {
	// MaxLevels caps the grid after refinement (default 33). A positive
	// cap below the 9-level starting grid is raised to 9: the starting
	// grid is always solved in full.
	MaxLevels int
}

func (o GridOptions) withDefaults() GridOptions {
	if o.MaxLevels <= 0 {
		o.MaxLevels = 33
	}
	if o.MaxLevels < initLevels {
		o.MaxLevels = initLevels
	}
	return o
}

// Staircase is the materialized step function. Budgets is strictly
// ascending; level k holds schedule Scheds[Level[k]] (adjacent levels
// with identical schedules share one distinct entry). Trunc is non-nil
// only when the scheduler reports truncation (TruncationReporter) and
// records the per-level flag.
type Staircase struct {
	Lo, Hi  float64
	Fracs   []float64
	Budgets []float64
	Level   []int32
	Scheds  []workflow.Schedule
	Trunc   []bool
}

// Levels returns the number of grid levels.
func (st *Staircase) Levels() int { return len(st.Budgets) }

// Steps returns the number of distinct schedules.
func (st *Staircase) Steps() int { return len(st.Scheds) }

// Schedule returns level k's schedule. The returned slice is shared —
// callers must treat it as read-only.
func (st *Staircase) Schedule(k int) workflow.Schedule { return st.Scheds[st.Level[k]] }

// Truncated reports level k's truncation flag.
func (st *Staircase) Truncated(k int) bool { return st.Trunc != nil && st.Trunc[k] }

// Lookup binary-searches the grid for an exact budget match and returns
// its level. Only bit-exact hits count: between two grid levels the
// scheduler's answer is not determined by the endpoints (greedy
// heuristics are step functions with unknown step positions), so a
// near-miss must fall through to a direct solve.
//
// medcc:floateq-exact — grid membership is bit-exact by construction:
// both sides of the comparison come from BudgetAt over identical
// (lo, hi, frac) inputs.
func (st *Staircase) Lookup(budget float64) (int, bool) {
	lo, hi := 0, len(st.Budgets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.Budgets[mid] < budget {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st.Budgets) && st.Budgets[lo] == budget {
		return lo, true
	}
	return lo, false
}

// SweepGrid solves (sch, w, m) at every level of an adaptively refined
// fraction grid over the budget range [lo, hi] and extracts the
// staircase. The initial grid is uniform; then, while the level count
// is below MaxLevels, every adjacent pair whose schedules differ is
// split at its fraction midpoint — refinement localizes the step
// boundaries of the trade-off curve, so the finished grid is dense
// where the schedule actually changes and sparse where it does not.
//
// lo must be feasible (the serve layer passes the pair's Cmin). The
// grid is solved level by level on the scheduler's own engine scratch;
// every level is bit-identical to a direct ScheduleInto at its budget.
func SweepGrid(sch IntoScheduler, w *workflow.Workflow, m *workflow.Matrices, lo, hi float64, opt GridOptions) (*Staircase, error) {
	if hi < lo {
		return nil, fmt.Errorf("sched: SweepGrid budget range [%.6g, %.6g] inverted", lo, hi)
	}
	opt = opt.withDefaults()
	tr, _ := sch.(TruncationReporter)

	fracs := make([]float64, initLevels)
	for k := range fracs {
		fracs[k] = float64(k) / float64(initLevels-1)
	}
	scheds := make([]workflow.Schedule, 0, opt.MaxLevels)
	trunc := make([]bool, 0, opt.MaxLevels)
	anyTrunc := false
	solve := func(frac float64) (workflow.Schedule, bool, error) {
		s, err := sch.ScheduleInto(nil, w, m, BudgetAt(lo, hi, frac))
		if err != nil {
			return nil, false, err
		}
		t := tr != nil && tr.WasTruncated()
		anyTrunc = anyTrunc || t
		return s, t, nil
	}
	for _, f := range fracs {
		s, t, err := solve(f)
		if err != nil {
			return nil, err
		}
		scheds = append(scheds, s)
		trunc = append(trunc, t)
	}

	// Refinement passes: split every differing adjacent pair at its
	// midpoint until the curve is resolved, the gaps hit the dyadic
	// floor, or the level cap is reached. Insertions within one pass are
	// processed back to front so earlier indices stay valid.
	for len(fracs) < opt.MaxLevels {
		inserted := false
		for k := len(fracs) - 2; k >= 0 && len(fracs) < opt.MaxLevels; k-- {
			gap := fracs[k+1] - fracs[k]
			if gap < minRefineGap || scheds[k].Equal(scheds[k+1]) {
				continue
			}
			mid := fracs[k] + float64(gap/2)
			s, t, err := solve(mid)
			if err != nil {
				return nil, err
			}
			fracs = insertFloat(fracs, k+1, mid)
			scheds = insertSchedule(scheds, k+1, s)
			trunc = insertBool(trunc, k+1, t)
			inserted = true
		}
		if !inserted {
			break
		}
	}

	return extractStaircase(lo, hi, fracs, scheds, trunc, anyTrunc), nil
}

func insertFloat(s []float64, i int, v float64) []float64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertSchedule(s []workflow.Schedule, i int, v workflow.Schedule) []workflow.Schedule {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertBool(s []bool, i int, v bool) []bool {
	s = append(s, false)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// extractStaircase collapses the solved grid into the shared form:
// duplicate budgets are dropped (a degenerate range maps many fractions
// onto one budget; the solver is deterministic, so their schedules are
// identical), and runs of equal adjacent schedules share one distinct
// entry.
//
// medcc:floateq-exact — duplicate-budget collapse is bit-exact on
// purpose: Lookup matches bit-exactly, so two levels are redundant only
// when their budgets are the same float.
func extractStaircase(lo, hi float64, fracs []float64, scheds []workflow.Schedule, trunc []bool, anyTrunc bool) *Staircase {
	st := &Staircase{Lo: lo, Hi: hi}
	for k := range fracs {
		b := BudgetAt(lo, hi, fracs[k])
		if n := len(st.Budgets); n > 0 && st.Budgets[n-1] == b {
			continue
		}
		var lev int32
		if n := len(st.Scheds); n > 0 && st.Scheds[n-1].Equal(scheds[k]) {
			lev = int32(n - 1)
		} else {
			lev = int32(len(st.Scheds))
			st.Scheds = append(st.Scheds, scheds[k])
		}
		st.Fracs = append(st.Fracs, fracs[k])
		st.Budgets = append(st.Budgets, b)
		st.Level = append(st.Level, lev)
		if anyTrunc {
			st.Trunc = append(st.Trunc, trunc[k])
		}
	}
	return st
}
