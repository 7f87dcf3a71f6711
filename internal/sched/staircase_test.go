package sched

import (
	"math"
	"math/rand"
	"testing"

	"medcc/internal/gen"
)

// staircaseSchedulers are the families the serve cache will build
// staircases for: Greedy and GAIN3 (Sweepers) and LOSS1 (no Sweeper).
func staircaseSchedulers() []struct {
	name string
	mk   func() IntoScheduler
} {
	return []struct {
		name string
		mk   func() IntoScheduler
	}{
		{"critical-greedy", func() IntoScheduler { return CriticalGreedy() }},
		{"gain3", func() IntoScheduler { return &GAIN{Variant: 3} }},
		{"loss1", func() IntoScheduler { return &LOSS{Variant: 1} }},
	}
}

// TestSweepGridBitIdentical is the staircase's core contract: every
// grid level must equal an independent cold ScheduleInto at the same
// budget, bit for bit.
func TestSweepGridBitIdentical(t *testing.T) {
	sizes := gen.PaperProblemSizes()[:6]
	for _, size := range sizes {
		w, m, cmin, cmax := diffInstance(t, size.M, size)
		for _, sc := range staircaseSchedulers() {
			st, err := SweepGrid(sc.mk(), w, m, cmin, cmax, GridOptions{})
			if err != nil {
				t.Fatalf("%s on %v: %v", sc.name, size, err)
			}
			fresh := sc.mk()
			for k := 0; k < st.Levels(); k++ {
				want, err := fresh.ScheduleInto(nil, w, m, st.Budgets[k])
				if err != nil {
					t.Fatal(err)
				}
				requireSameSchedule(t, sc.name+" staircase level", size, st.Budgets[k], st.Schedule(k), want)
			}
		}
	}
}

// TestSweepGridInvariants checks the structural contract of the
// extracted staircase: strictly ascending budgets recomputed through
// BudgetAt, valid level indices, no two adjacent levels sharing a
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
		if got := BudgetAt(st.Lo, st.Hi, st.Fracs[k]); got != st.Budgets[k] {
			t.Fatalf("level %d: BudgetAt(frac) = %v, stored budget %v — not bit-equal", k, got, st.Budgets[k])
		}
		if int(st.Level[k]) >= st.Steps() {
			t.Fatalf("level %d: distinct index %d out of range (%d steps)", k, st.Level[k], st.Steps())
		}
		if k > 0 {
			if st.Budgets[k] <= st.Budgets[k-1] {
				t.Fatalf("budgets not strictly ascending at %d: %v then %v", k, st.Budgets[k-1], st.Budgets[k])
			}
			same := st.Schedule(k).Equal(st.Schedule(k - 1))
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
// every fraction a dyadic so midpoint budgets land bit-exactly via
// BudgetAt.
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
	for k, f := range fine.Fracs {
		scaled := f * 4096
		if scaled != math.Trunc(scaled) {
			t.Fatalf("frac[%d] = %v is not a multiple of 1/4096 — refinement left the dyadic grid", k, f)
		}
	}
	// Coarse grid fractions must survive into the refined grid with the
	// same bit-exact budgets (refinement only inserts, never perturbs).
	for k, f := range coarse.Fracs {
		if lev, ok := fine.Lookup(coarse.Budgets[k]); !ok {
			t.Fatalf("coarse budget %v (frac %v) missing from refined grid", coarse.Budgets[k], f)
		} else if fine.Budgets[lev] != coarse.Budgets[k] {
			t.Fatalf("lookup returned wrong level for coarse budget %v", coarse.Budgets[k])
		}
	}
}

// TestStaircaseLookup pins the exact-match semantics the cache depends
// on: every grid budget hits its own level; everything else — including
// budgets a half-ulp off a grid point — misses and must fall through.
func TestStaircaseLookup(t *testing.T) {
	size := gen.ProblemSize{M: 25, E: 201, N: 5}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	st, err := SweepGrid(&GAIN{Variant: 3}, w, m, cmin, cmax, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < st.Levels(); k++ {
		lev, ok := st.Lookup(st.Budgets[k])
		if !ok || lev != k {
			t.Fatalf("Lookup(Budgets[%d]) = (%d, %v), want (%d, true)", k, lev, ok, k)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		b := cmin + rng.Float64()*(cmax-cmin)
		if _, hit := st.Lookup(b); hit {
			// Astronomically unlikely to land bit-exactly on a grid point;
			// if it does, it's a legitimate hit, not a failure.
			if lev, _ := st.Lookup(b); st.Budgets[lev] != b {
				t.Fatalf("Lookup(%v) claimed hit on non-matching budget", b)
			}
			continue
		}
	}
	if _, ok := st.Lookup(math.Nextafter(st.Budgets[1], math.Inf(1))); ok {
		t.Fatal("Lookup matched a budget one ulp off a grid point")
	}
	if _, ok := st.Lookup(cmin - 1); ok {
		t.Fatal("Lookup matched a budget below the range")
	}
	if _, ok := st.Lookup(cmax + 1); ok {
		t.Fatal("Lookup matched a budget above the range")
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
		any = any || st.Truncated(k)
	}
	if !any {
		t.Fatal("MaxNodes=1 solve reported no truncation at any level")
	}
}
