package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

func TestGAIN3PaperExampleAtB57(t *testing.T) {
	// GainWeights from the least-cost schedule: w4->VT3 (6/1), then
	// w3->VT3 (6.3/1), then w6->VT3 (5.4/2); with the remaining 5 units
	// at B=57, w2->VT3 (ratio 1/3) wins the w2/w5 tie by index. GAIN3
	// ends at cost 56 with w5 and w1 unmoved.
	w, m := paperSetup(t)
	res, err := Run(&GAIN{Label: "gain3"}, w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	want := workflow.Schedule{-1, 1, 2, 2, 2, 1, 2, -1}
	if !res.Schedule.Equal(want) {
		t.Fatalf("GAIN3 schedule = %v, want %v", res.Schedule, want)
	}
	if res.Cost != 56 {
		t.Fatalf("GAIN3 cost = %v, want 56", res.Cost)
	}
}

func TestGAINInfeasible(t *testing.T) {
	w, m := paperSetup(t)
	for _, g := range []Scheduler{&GAIN{Label: "gain1"}, &GAIN2{}, &GAIN{Label: "gain3"}} {
		if _, err := g.Schedule(w, m, 40); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s err = %v", g.Name(), err)
		}
	}
}

func TestGAINVariantsRespectBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 12, E: 25, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(wf)
		b := cmin + rng.Float64()*(cmax-cmin)
		for _, g := range []Scheduler{&GAIN{Label: "gain1"}, &GAIN2{}, &GAIN{Label: "gain3"}} {
			res, err := Run(g, wf, m, b)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			if res.Cost > b+1e-9 {
				t.Fatalf("%s overspent: %v > %v", g.Name(), res.Cost, b)
			}
		}
	}
}

func TestGAIN2NeverWorseThanLeastCostMakespan(t *testing.T) {
	// GAIN2 only applies moves that strictly decrease the makespan, so
	// its MED is <= the least-cost schedule's MED.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 8, E: 14, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		lcEv, _ := wf.Evaluate(m, m.LeastCost(wf), nil)
		res, err := Run(&GAIN2{}, wf, m, (cmin+cmax)/2)
		if err != nil {
			t.Fatal(err)
		}
		if res.MED > lcEv.Makespan+1e-9 {
			t.Fatalf("GAIN2 MED %v above least-cost %v", res.MED, lcEv.Makespan)
		}
	}
}

func TestGAIN1SinglePassUpgradesAtMostOncePerModule(t *testing.T) {
	w, m := paperSetup(t)
	lc := m.LeastCost(w)
	s, err := (&GAIN{Label: "gain1"}).Schedule(w, m, 64)
	if err != nil {
		t.Fatal(err)
	}
	// With the full Cmax budget every module can afford its best-ratio
	// upgrade; all moved modules must differ from least-cost by exactly
	// one reassignment each (trivially true), and cost stays <= 64.
	if got := m.Cost(s); got > 64+1e-9 {
		t.Fatalf("cost %v over budget", got)
	}
	moved := 0
	for i := range s {
		if s[i] != lc[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("GAIN1 moved nothing with full budget")
	}
}

// TestCGBeatsGAIN3OnBranchTrap reproduces the paper's §VI discussion with
// a deterministic instance: branch modules carry the best local GainWeight
// ratios, so GAIN3 spends the budget off the critical path while CG
// attacks the critical path directly.
func TestCGBeatsGAIN3OnBranchTrap(t *testing.T) {
	// Chain hot1 -> hot2 is critical; two independent branch modules
	// have better local upgrade ratios (their times divide the billing
	// unit evenly while the hot modules' upgraded times round up) but
	// zero global impact.
	cat := cloud.Catalog{
		{Name: "VT1", Power: 1, Rate: 1},
		{Name: "VT4", Power: 4, Rate: 5},
	}
	// hot (WL=25): VT1 25h/$25 -> VT4 6.25h/$35: dT 18.75, dC 10,
	// ratio 1.875. branch (WL=8): VT1 8h/$8 -> VT4 2h/$10: dT 6, dC 2,
	// ratio 3. GAIN3 upgrades both branches first (dC 4), then only one
	// hot module fits in the leftover budget.
	w := workflow.New()
	hot1 := w.AddModule(workflow.Module{Name: "hot1", Workload: 25})
	hot2 := w.AddModule(workflow.Module{Name: "hot2", Workload: 25})
	if err := w.AddDependency(hot1, hot2, 0); err != nil {
		t.Fatal(err)
	}
	w.AddModule(workflow.Module{Name: "branch1", Workload: 8})
	w.AddModule(workflow.Module{Name: "branch2", Workload: 8})
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin := m.Cost(m.LeastCost(w)) // 25+25+8+8 = 66
	if cmin != 66 {
		t.Fatalf("Cmin = %v, want 66", cmin)
	}
	budget := cmin + 20.0 // exactly both hot upgrades, or branches + one

	cgRes, err := Run(CriticalGreedy(), w, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	g3Res, err := Run(&GAIN{Label: "gain3"}, w, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	// CG: upgrades hot1 and hot2 (25h -> 6.25h each): MED 12.5.
	if math.Abs(cgRes.MED-12.5) > 1e-9 {
		t.Fatalf("CG MED = %v, want 12.5", cgRes.MED)
	}
	// GAIN3: branches first (ratio 3), then one hot module: MED 31.25.
	if math.Abs(g3Res.MED-31.25) > 1e-9 {
		t.Fatalf("GAIN3 MED = %v, want 31.25", g3Res.MED)
	}
}

// TestCGvsGAIN3Statistical reproduces the headline result of Table IV in a
// laptop-sized form: averaged over random instances and budget levels, CG's
// MED is substantially better than GAIN3's under the experiment
// distribution of gen.Instance.
func TestCGvsGAIN3Statistical(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	var cgSum, g3Sum float64
	wins, losses := 0, 0
	for trial := 0; trial < 10; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 20, E: 80, N: 5})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		for lvl := 1; lvl <= 10; lvl++ {
			b := cmin + float64(lvl)/10*(cmax-cmin)
			cg, err := Run(CriticalGreedy(), wf, m, b)
			if err != nil {
				t.Fatal(err)
			}
			g3, err := Run(&GAIN{Label: "gain3"}, wf, m, b)
			if err != nil {
				t.Fatal(err)
			}
			cgSum += cg.MED
			g3Sum += g3.MED
			switch {
			case cg.MED < g3.MED-1e-9:
				wins++
			case cg.MED > g3.MED+1e-9:
				losses++
			}
		}
	}
	if math.IsNaN(cgSum) || math.IsNaN(g3Sum) {
		t.Fatal("NaN MED")
	}
	if cgSum > g3Sum {
		t.Fatalf("CG average MED %v worse than GAIN3 %v", cgSum/100, g3Sum/100)
	}
	if wins <= losses {
		t.Fatalf("CG wins %d vs losses %d across 100 runs", wins, losses)
	}
	t.Logf("CG avg %.2f vs GAIN3 avg %.2f (wins %d, losses %d)", cgSum/100, g3Sum/100, wins, losses)
}
