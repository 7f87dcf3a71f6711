package sched

import (
	"errors"
	"math"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

func paperSetup(t *testing.T) (*workflow.Workflow, *workflow.Matrices) {
	t.Helper()
	w, cat := workflow.PaperExample()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	return w, m
}

func TestCGInfeasibleBudget(t *testing.T) {
	w, m := paperSetup(t)
	_, err := CriticalGreedy().Schedule(w, m, 47.99)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestCGAtCminReturnsLeastCost(t *testing.T) {
	w, m := paperSetup(t)
	s, err := CriticalGreedy().Schedule(w, m, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(m.LeastCost(w)) {
		t.Fatalf("schedule at Cmin = %v", s)
	}
}

// TestCGPaperStaircase checks the Table II reconstruction: the budget
// breakpoints 48/49/50/52/56/60/64 are exactly the paper's, and the MED
// staircase is strictly decreasing across them (the paper's Fig. 6 shape;
// absolute MEDs differ because Fig. 4's edge set is only partially
// recoverable — see DESIGN.md).
func TestCGPaperStaircase(t *testing.T) {
	w, m := paperSetup(t)
	cases := []struct {
		budget, med, cost float64
	}{
		{48, 52.0 / 3, 48},
		{49, 47.0 / 3, 49},
		{50, 34.0 / 3, 50},
		{51, 34.0 / 3, 50}, // no affordable upgrade between 50 and 52
		{52, 181.0 / 30, 52},
		{56, 2 + 59.0/15, 56},
		{57, 2 + 59.0/15, 56}, // one unit of budget left unused, as in §V-B
		{60, 4.7, 60},
		{64, 4.6, 64},
		{100, 4.6, 64}, // budget beyond Cmax is never overspent
	}
	for _, c := range cases {
		res, err := Run(CriticalGreedy(), w, m, c.budget)
		if err != nil {
			t.Fatalf("B=%v: %v", c.budget, err)
		}
		if math.Abs(res.MED-c.med) > 1e-9 {
			t.Errorf("B=%v: MED = %.6f, want %.6f", c.budget, res.MED, c.med)
		}
		if math.Abs(res.Cost-c.cost) > 1e-9 {
			t.Errorf("B=%v: cost = %v, want %v", c.budget, res.Cost, c.cost)
		}
	}
}

// TestCGReschedulingOrder follows the §V-B narration: from the least-cost
// schedule the first module upgraded is w4 (largest time decrease among
// critical modules), then w3, then w6.
func TestCGReschedulingOrder(t *testing.T) {
	w, m := paperSetup(t)
	lc := m.LeastCost(w)

	s49, _ := CriticalGreedy().Schedule(w, m, 49)
	if s49[4] != 2 {
		t.Fatalf("B=49: w4 not upgraded to VT3: %v", s49)
	}
	for _, i := range []int{1, 2, 3, 5, 6} {
		if s49[i] != lc[i] {
			t.Fatalf("B=49: module %d moved unexpectedly: %v", i, s49)
		}
	}
	s50, _ := CriticalGreedy().Schedule(w, m, 50)
	if s50[3] != 2 || s50[4] != 2 {
		t.Fatalf("B=50: want w3,w4 on VT3: %v", s50)
	}
	s52, _ := CriticalGreedy().Schedule(w, m, 52)
	if s52[6] != 2 {
		t.Fatalf("B=52: want w6 on VT3: %v", s52)
	}
}

func TestCGMEDMonotoneInBudget(t *testing.T) {
	w, m := paperSetup(t)
	prev := math.Inf(1)
	for b := 48.0; b <= 70; b += 0.5 {
		res, err := Run(CriticalGreedy(), w, m, b)
		if err != nil {
			t.Fatalf("B=%v: %v", b, err)
		}
		if res.MED > prev+1e-9 {
			t.Fatalf("MED increased from %v to %v at B=%v", prev, res.MED, b)
		}
		if res.Cost > b+1e-9 {
			t.Fatalf("B=%v: cost %v over budget", b, res.Cost)
		}
		prev = res.MED
	}
}

func TestCGTieBreakPrefersCheaperUpgrade(t *testing.T) {
	// Two types give the same execution time for the module but
	// different costs; CG must pick the cheaper (Alg. 1 step 13).
	cat := cloud.Catalog{
		{Name: "base", Power: 1, Rate: 1},
		{Name: "fastCheap", Power: 10, Rate: 2},
		{Name: "fastPricey", Power: 10, Rate: 3},
	}
	w := workflow.New()
	w.AddModule(workflow.Module{Name: "m", Workload: 10})
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CriticalGreedy().Schedule(w, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Fatalf("chose type %d, want cheaper tie 1", s[0])
	}
}

func TestCGSingleModuleMatchesOptimal(t *testing.T) {
	cat := cloud.LinearCatalog(4, 2, 1)
	w := workflow.New()
	w.AddModule(workflow.Module{Name: "solo", Workload: 37})
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	for b := cmin; b <= cmax+1; b++ {
		cg, err := Run(CriticalGreedy(), w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(&Optimal{}, w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(cg.MED-opt.MED) > 1e-9 {
			t.Fatalf("B=%v: CG %v != optimal %v on single module", b, cg.MED, opt.MED)
		}
	}
}

func TestGreedyVariantsRegistered(t *testing.T) {
	for _, name := range []string{"critical-greedy", "critical-ratio", "all-timedec", "gain1", "gain2", "gain3", "gain3-wrf", "anneal", "budget-dist", "loss1", "loss2", "loss3", "optimal"} {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Names()) < 9 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("critical-greedy", func() Scheduler { return CriticalGreedy() })
}

func TestImprovement(t *testing.T) {
	if got := Improvement(10, 8); math.Abs(got-20) > 1e-12 {
		t.Fatalf("Improvement = %v", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Fatalf("Improvement with zero base = %v", got)
	}
	if got := Improvement(10, 12); got != -20 {
		t.Fatalf("negative improvement = %v", got)
	}
}
