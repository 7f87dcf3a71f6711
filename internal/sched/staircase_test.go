package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// staircaseAlgs are the schedulers the grid-equality pin builds
// staircases with: every Sweeper, and LOSS1, which solves level by level.
var staircaseAlgs = []string{"critical-greedy", "critical-ratio", "all-timedec", "gain-fixpoint", "gain1", "gain3", "loss1"}

// refSweepGrid is the level-by-level SweepGrid: the starting grid solved
// in order, then every refinement round's differing pairs split back to
// front with one cold ScheduleInto per midpoint, each inserted as it is
// solved. It fixes which fractions a grid holds.
func refSweepGrid(sch IntoScheduler, w *workflow.Workflow, m *workflow.Matrices, lo, hi float64, maxLevels int) ([]gridLevel, error) {
	solve := func(frac float64) (gridLevel, error) {
		s, err := sch.ScheduleInto(nil, w, m, BudgetAt(lo, hi, frac))
		return gridLevel{frac: frac, sched: s}, err
	}
	var grid []gridLevel
	for k := 0; k < initLevels; k++ {
		l, err := solve(float64(k) / float64(initLevels-1))
		if err != nil {
			return nil, err
		}
		grid = append(grid, l)
	}
	for len(grid) < maxLevels {
		inserted := false
		for k := len(grid) - 2; k >= 0 && len(grid) < maxLevels; k-- {
			gap := grid[k+1].frac - grid[k].frac
			if gap < minRefineGap || grid[k].sched.Equal(grid[k+1].sched) {
				continue
			}
			l, err := solve(grid[k].frac + float64(gap/2))
			if err != nil {
				return nil, err
			}
			grid = slices.Insert(grid, k+1, l)
			inserted = true
		}
		if !inserted {
			break
		}
	}
	return grid, nil
}

// requireSameStaircase fails unless got and want hold the same levels:
// budgets bit for bit, level indices, distinct schedules and truncation
// flags.
func requireSameStaircase(t *testing.T, label string, got, want *Staircase) {
	t.Helper()
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for k, f := range fs {
			out[k] = math.Float64bits(f)
		}
		return out
	}
	switch {
	case !slices.Equal(bits(got.Budgets), bits(want.Budgets)):
		t.Fatalf("%s: budgets %v, want %v", label, got.Budgets, want.Budgets)
	case !slices.Equal(got.Level, want.Level):
		t.Fatalf("%s: levels %v, want %v", label, got.Level, want.Level)
	case !slices.EqualFunc(got.Scheds, want.Scheds, workflow.Schedule.Equal):
		t.Fatalf("%s: distinct schedules differ\n got: %v\nwant: %v", label, got.Scheds, want.Scheds)
	case !slices.Equal(got.Trunc, want.Trunc):
		t.Fatalf("%s: truncation flags %v, want %v", label, got.Trunc, want.Trunc)
	}
}

// TestSweepGridBitIdentical is the staircase's core contract, the
// grid-equality pin: SweepGrid solves each round as one sweep, and the
// staircase must equal both the same build with SweepInto hidden (every
// level its own ScheduleInto) and refSweepGrid, which picks the
// fractions level by level and solves each one cold. Caps of 12 and 17
// stop a refinement round part way, a zero-width range maps every
// fraction onto one budget, and the tied instances put several steps
// between coarse levels.
func TestSweepGridBitIdentical(t *testing.T) {
	type input struct {
		name       string
		w          *workflow.Workflow
		m          *workflow.Matrices
		cmin, cmax float64
	}
	var inputs []input
	sizes := gen.PaperProblemSizes()
	if testing.Short() {
		sizes = sizes[:8]
	}
	for k, size := range sizes {
		w, m, cmin, cmax := diffInstance(t, k, size)
		inputs = append(inputs, input{fmt.Sprint(size), w, m, cmin, cmax})
	}
	for _, ti := range tiedInstances(t) {
		inputs = append(inputs, input{ti.name + " " + fmt.Sprint(ti.size), ti.w, ti.m, ti.cmin, ti.cmax})
	}
	for _, name := range staircaseAlgs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sch, one, ref := mustInto(t, name), mustInto(t, name), mustInto(t, name)
			perLevel := struct{ IntoScheduler }{one} // hides SweepInto
			for _, in := range inputs {
				for _, grid := range []struct {
					name   string
					hi     float64
					levels int
				}{
					{"9", in.cmax, 9}, {"12", in.cmax, 12}, {"17", in.cmax, 17}, {"33", in.cmax, 33},
					{"zero-width", in.cmin, 33},
				} {
					label := fmt.Sprintf("%s on %s, grid %s", name, in.name, grid.name)
					opt := GridOptions{MaxLevels: grid.levels}
					got, err := SweepGrid(sch, in.w, in.m, in.cmin, grid.hi, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					per, err := SweepGrid(perLevel, in.w, in.m, in.cmin, grid.hi, opt)
					if err != nil {
						t.Fatalf("%s per level: %v", label, err)
					}
					levels, err := refSweepGrid(ref, in.w, in.m, in.cmin, grid.hi, grid.levels)
					if err != nil {
						t.Fatalf("%s reference: %v", label, err)
					}
					want := extractStaircase(in.cmin, grid.hi, levels)
					requireSameStaircase(t, label, got, want)
					requireSameStaircase(t, label+" per level", per, want)
				}
			}
		})
	}
}

// TestGAINSweepRebindInPlace pins the sorted-list reuse of GAIN's sweep
// to the engine binding, not to the pointers: a pooled builder rebuilds
// instance B behind instance A's workflow and matrices pointers, and a
// sweep of B by the scheduler that swept A must equal a fresh
// scheduler's sweep of B.
func TestGAINSweepRebindInPlace(t *testing.T) {
	size := gen.ProblemSize{M: 40, E: 434, N: 6}
	var b gen.Builder
	var m *workflow.Matrices
	build := func(seed int64) (*workflow.Workflow, []float64) {
		w, cat, err := b.Instance(rand.New(rand.NewSource(seed)), size)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = w.BuildMatricesInto(cat, cloud.HourlyRoundUp, m); err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(w)
		budgets := make([]float64, 17)
		for k := range budgets {
			budgets[k] = BudgetAt(cmin, cmax, float64(k)/16)
		}
		return w, budgets
	}
	g := &GAIN{Label: "gain3"}
	wA, budgetsA := build(1)
	mA := m
	if _, err := g.SweepInto(nil, wA, mA, budgetsA); err != nil {
		t.Fatal(err)
	}
	wB, budgetsB := build(2)
	if wB != wA || m != mA {
		t.Fatal("instance B was not rebuilt behind instance A's pointers")
	}
	got, err := g.SweepInto(nil, wB, m, budgetsB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&GAIN{Label: "gain3"}).SweepInto(nil, wB, m, budgetsB)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("level %d (budget %v): rebound sweep %v, fresh sweep %v", k, budgetsB[k], got[k], want[k])
		}
	}
}

// gridStep returns the j for which BudgetAt(lo, hi, j/4096) is bit-equal
// to b, or -1 when no fraction on the 1/4096 dyadic grid maps onto b.
func gridStep(lo, hi, b float64) int {
	for j := 0; j <= 4096; j++ {
		if BudgetAt(lo, hi, float64(j)/4096) == b {
			return j
		}
	}
	return -1
}

// TestSweepGridInvariants checks the structural contract of the
// extracted staircase: strictly ascending budgets, each bit-equal to
// BudgetAt at a fraction on the 1/4096 dyadic grid, valid level indices, no two adjacent levels sharing a
// distinct-schedule entry AND differing in schedule, dedup actually
// collapsing runs, and the endpoints of the range present.
func TestSweepGridInvariants(t *testing.T) {
	size := gen.ProblemSize{M: 30, E: 268, N: 6}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	st, err := SweepGrid(CriticalGreedy(), w, m, cmin, cmax, GridOptions{MaxLevels: 33})
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels() < 2 || st.Levels() > 33 {
		t.Fatalf("levels = %d, want within [2, 33]", st.Levels())
	}
	if st.Budgets[0] != cmin || st.Budgets[st.Levels()-1] != cmax {
		t.Fatalf("endpoints [%.6g, %.6g], want [%.6g, %.6g]",
			st.Budgets[0], st.Budgets[st.Levels()-1], cmin, cmax)
	}
	for k := 0; k < st.Levels(); k++ {
		if gridStep(st.Lo, st.Hi, st.Budgets[k]) < 0 {
			t.Fatalf("level %d: budget %v is BudgetAt of no fraction j/4096", k, st.Budgets[k])
		}
		if int(st.Level[k]) >= st.Steps() {
			t.Fatalf("level %d: distinct index %d out of range (%d steps)", k, st.Level[k], st.Steps())
		}
		if k > 0 {
			if st.Budgets[k] <= st.Budgets[k-1] {
				t.Fatalf("budgets not strictly ascending at %d: %v then %v", k, st.Budgets[k-1], st.Budgets[k])
			}
			same := st.Scheds[st.Level[k]].Equal(st.Scheds[st.Level[k-1]])
			shared := st.Level[k] == st.Level[k-1]
			if same != shared {
				t.Fatalf("level %d: equal schedules=%v but shared entry=%v — dedup broken", k, same, shared)
			}
		}
	}
	if st.Steps() > st.Levels() {
		t.Fatalf("%d distinct schedules for %d levels", st.Steps(), st.Levels())
	}
}

// TestSweepGridRefinement checks that adaptive refinement (a) adds
// levels beyond the initial grid when the curve has steps between
// coarse points, (b) respects MaxLevels and its defaulting, and (c) keeps
// every fraction a dyadic, so every budget is BudgetAt of some j/4096
// bit for bit.
func TestSweepGridRefinement(t *testing.T) {
	size := gen.ProblemSize{M: 40, E: 453, N: 7}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	coarse, err := SweepGrid(CriticalGreedy(), w, m, cmin, cmax, GridOptions{MaxLevels: 9})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := SweepGrid(CriticalGreedy(), w, m, cmin, cmax, GridOptions{MaxLevels: 17})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Levels() <= coarse.Levels() {
		t.Fatalf("refinement added no levels: coarse %d, fine %d (curve has %d distinct schedules)",
			coarse.Levels(), fine.Levels(), coarse.Steps())
	}
	if fine.Levels() > 17 {
		t.Fatalf("MaxLevels=17 exceeded: %d levels", fine.Levels())
	}
	// Only MaxLevels <= 0 selects the default cap of 33. A positive cap
	// below the 9-level starting grid is raised to 9, not to the default.
	for _, tc := range []struct{ max, want int }{{0, 33}, {5, 9}, {9, 9}, {17, 17}} {
		st, err := SweepGrid(CriticalGreedy(), w, m, cmin, cmax, GridOptions{MaxLevels: tc.max})
		if err != nil {
			t.Fatal(err)
		}
		if st.Levels() != tc.want {
			t.Errorf("MaxLevels=%d: %d levels, want %d", tc.max, st.Levels(), tc.want)
		}
	}
	for k, b := range fine.Budgets {
		if gridStep(fine.Lo, fine.Hi, b) < 0 {
			t.Fatalf("budget[%d] = %v is BudgetAt of no fraction j/4096 — refinement left the dyadic grid", k, b)
		}
	}
	// Coarse grid budgets must survive into the refined grid bit for bit
	// (refinement only inserts, never perturbs).
	for _, b := range coarse.Budgets {
		if lev, ok := fine.Lookup(b); !ok {
			t.Fatalf("coarse budget %v missing from refined grid", b)
		} else if fine.Budgets[lev] != b {
			t.Fatalf("lookup returned wrong level for coarse budget %v", b)
		}
	}
}

// TestSweepGridDegenerate covers the zero-width budget range (cmin ==
// cmax: all fractions map to one budget, collapsed to one level) and
// the inverted-range error.
func TestSweepGridDegenerate(t *testing.T) {
	size := gen.ProblemSize{M: 15, E: 53, N: 4}
	w, m, cmin, _ := diffInstance(t, size.M, size)
	st, err := SweepGrid(CriticalGreedy(), w, m, cmin, cmin, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels() != 1 {
		t.Fatalf("zero-width range: %d levels, want 1", st.Levels())
	}
	if lev, ok := st.Lookup(cmin); !ok || lev != 0 {
		t.Fatalf("zero-width lookup = (%d, %v), want (0, true)", lev, ok)
	}
	if _, err := SweepGrid(CriticalGreedy(), w, m, cmin+1, cmin, GridOptions{}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestSweepGridTruncation checks that a TruncationReporter scheduler
// propagates per-level truncation flags into the staircase.
func TestSweepGridTruncation(t *testing.T) {
	size := gen.ProblemSize{M: 8, E: 11, N: 3}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	st, err := SweepGrid(&Optimal{MaxNodes: 1}, w, m, cmin, cmax, GridOptions{MaxLevels: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Trunc == nil {
		t.Fatal("truncating solver produced no Trunc flags")
	}
	any := false
	for k := 0; k < st.Levels(); k++ {
		any = any || st.Trunc[k]
	}
	if !any {
		t.Fatal("MaxNodes=1 solve reported no truncation at any level")
	}
}

// TestSweepGridOptimalMatchesFreshSolves builds optimal's staircase on
// the paper example and on small random instances with one solver, as a
// serve worker does, and requires every level to equal a fresh solve at
// its budget. The paper example's 9 starting levels hold more than one
// distinct schedule.
func TestSweepGridOptimalMatchesFreshSolves(t *testing.T) {
	w, m := paperSetup(t)
	cmin, cmax := m.BudgetRange(w)
	st, err := SweepGrid(&Optimal{}, w, m, cmin, cmax, GridOptions{MaxLevels: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps() < 2 {
		t.Fatalf("paper example: %d distinct schedules over %d levels", st.Steps(), st.Levels())
	}
	requireFreshLevels(t, "paper example", st, w, m)
	for k, size := range []gen.ProblemSize{{M: 5, E: 6, N: 3}, {M: 6, E: 11, N: 3}, {M: 8, E: 11, N: 3}} {
		w, m, cmin, cmax := diffInstance(t, k, size)
		st, err := SweepGrid(&Optimal{}, w, m, cmin, cmax, GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		requireFreshLevels(t, fmt.Sprint(size), st, w, m)
	}
}

// requireFreshLevels requires every level of st to hold what a fresh
// optimal solve returns at its budget.
func requireFreshLevels(t *testing.T, label string, st *Staircase, w *workflow.Workflow, m *workflow.Matrices) {
	t.Helper()
	for k, b := range st.Budgets {
		want, err := (&Optimal{}).Schedule(w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Scheds[st.Level[k]]; !got.Equal(want) {
			t.Fatalf("%s level %d budget %v: staircase %v, fresh %v", label, k, b, got, want)
		}
	}
}

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
