package sched

import (
	"cmp"
	"fmt"
	"slices"

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
// that budget returns. A scheduler that keeps trails (see Trail) solves
// every level by resuming from a lower level's trail and keeps each
// level's trail in the staircase, so a later solve at any budget can
// resume from the level below it; other schedulers solve each level
// separately. Every call rebinds the same (workflow, matrices) pair, so
// the scheduler's engine binds once.

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
// records the per-level flag. Trails is non-nil only when the scheduler
// is a Sweeper (the Greedy family, GAIN1 and GAIN3) and holds level k's
// trail, from which a sweep at any budget at or above Budgets[k] can
// resume (Sweeper.SweepInto).
type Staircase struct {
	Lo, Hi  float64
	Budgets []float64
	Level   []int32
	Scheds  []workflow.Schedule
	Trunc   []bool
	Trails  []*Trail
}

// Levels returns the number of grid levels.
func (st *Staircase) Levels() int { return len(st.Budgets) }

// Steps returns the number of distinct schedules.
func (st *Staircase) Steps() int { return len(st.Scheds) }

// SweepGrid solves (sch, w, m) at every level of an adaptively refined
// fraction grid over the budget range [lo, hi] and extracts the
// staircase. The initial grid is uniform; then, while the level count
// is below MaxLevels, every adjacent pair whose schedules differ is
// split at its fraction midpoint — refinement localizes the step
// boundaries of the trade-off curve, so the finished grid is dense
// where the schedule actually changes and sparse where it does not.
// When MaxLevels binds within a round, the highest pairs are split.
//
// lo must be feasible (the serve layer passes the pair's Cmin). Every
// level is bit-identical to a direct ScheduleInto at its budget. A
// Sweeper (the Greedy family, GAIN1 and GAIN3) records its starting grid
// as one sweep from cold, each level continuing from the one below it,
// and each refinement midpoint as a one-level sweep from the trail of
// its left neighbour; the staircase keeps every level's trail. Any
// other scheduler solves each level with its own ScheduleInto, and a
// TruncationReporter's flag is read after each solve.
func SweepGrid(sch IntoScheduler, w *workflow.Workflow, m *workflow.Matrices, lo, hi float64, opt GridOptions) (*Staircase, error) {
	if !(hi >= lo) {
		return nil, fmt.Errorf("sched: SweepGrid budget range [%.6g, %.6g] inverted or NaN", lo, hi)
	}
	opt = opt.withDefaults()
	tr, _ := sch.(TruncationReporter)
	sw, _ := sch.(Sweeper)
	budgets := make([]float64, opt.MaxLevels)
	scheds := make([]workflow.Schedule, opt.MaxLevels)
	trails := make([]*Trail, opt.MaxLevels)
	// solve fills in the schedule, truncation flag and trail of every
	// level, whose fractions ascend. A Sweeper solves them as one sweep
	// from the trail from that records every level's trail; scheds is
	// cleared first, so each level gets a schedule of its own for the
	// staircase to keep.
	solve := func(levels []gridLevel, from *Trail) error {
		n := len(levels)
		for k := range levels {
			budgets[k] = BudgetAt(lo, hi, levels[k].frac)
		}
		if sw != nil {
			clear(scheds[:n])
			out, err := sw.SweepInto(scheds[:n], w, m, budgets[:n], from, trails[:n])
			if err != nil {
				return err
			}
			for k := range levels {
				levels[k].sched, levels[k].trail = out[k], trails[k]
			}
			return nil
		}
		for k, b := range budgets[:n] {
			var err error
			if levels[k].sched, err = sch.ScheduleInto(nil, w, m, b); err != nil {
				return err
			}
			if tr != nil {
				levels[k].trunc = tr.WasTruncated()
			}
		}
		return nil
	}

	grid := make([]gridLevel, initLevels, opt.MaxLevels)
	for k := range grid {
		grid[k].frac = float64(k) / float64(initLevels-1)
	}
	if err := solve(grid, nil); err != nil {
		return nil, err
	}

	// Refinement rounds: split every differing adjacent pair at its
	// midpoint until the curve is resolved, the gaps hit the dyadic
	// floor, or the level cap is reached. A round picks its pairs top
	// down, solves their midpoints ascending, and merges them in; each
	// midpoint lies strictly inside its pair, so sorting by fraction
	// puts it in place.
	mids := make([]gridLevel, 0, opt.MaxLevels)
	for len(grid) < opt.MaxLevels {
		mids = mids[:0]
		for k := len(grid) - 2; k >= 0 && len(grid)+len(mids) < opt.MaxLevels; k-- {
			gap := grid[k+1].frac - grid[k].frac
			if gap < minRefineGap || grid[k].sched.Equal(grid[k+1].sched) {
				continue
			}
			mids = append(mids, gridLevel{frac: grid[k].frac + float64(gap/2), from: grid[k].trail})
		}
		if len(mids) == 0 {
			break
		}
		slices.Reverse(mids)
		for k := range mids {
			if err := solve(mids[k:k+1], mids[k].from); err != nil {
				return nil, err
			}
		}
		grid = append(grid, mids...)
		slices.SortFunc(grid, func(a, b gridLevel) int { return cmp.Compare(a.frac, b.frac) })
	}

	return extractStaircase(lo, hi, grid), nil
}

// gridLevel is one solved point of a SweepGrid build: its schedule,
// truncation flag and trail, and the trail of the level a refinement
// midpoint resumes from.
type gridLevel struct {
	frac        float64
	sched       workflow.Schedule
	trunc       bool
	from, trail *Trail
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
func extractStaircase(lo, hi float64, grid []gridLevel) *Staircase {
	st := &Staircase{Lo: lo, Hi: hi}
	anyTrunc := slices.ContainsFunc(grid, func(l gridLevel) bool { return l.trunc })
	anyTrail := slices.ContainsFunc(grid, func(l gridLevel) bool { return l.trail != nil })
	for _, l := range grid {
		b := BudgetAt(lo, hi, l.frac)
		if n := len(st.Budgets); n > 0 && st.Budgets[n-1] == b {
			continue
		}
		var lev int32
		if n := len(st.Scheds); n > 0 && st.Scheds[n-1].Equal(l.sched) {
			lev = int32(n - 1)
		} else {
			lev = int32(len(st.Scheds))
			st.Scheds = append(st.Scheds, l.sched)
		}
		st.Budgets = append(st.Budgets, b)
		st.Level = append(st.Level, lev)
		if anyTrunc {
			st.Trunc = append(st.Trunc, l.trunc)
		}
		if anyTrail {
			st.Trails = append(st.Trails, l.trail)
		}
	}
	return st
}
