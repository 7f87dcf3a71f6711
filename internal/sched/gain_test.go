package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/dag"
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

// fullGainList is the GAIN1/GAIN3 upgrade list as it was built before
// the cost-frontier pruning: every improving option of every task,
// scored against the least-cost schedule lc and sorted by byGainWeight.
func fullGainList(w *workflow.Workflow, m *workflow.Matrices, lc workflow.Schedule) []gainMove {
	var ups []gainUpgrade
	for _, i := range w.Schedulable() {
		typ, te, ce := m.OptionTable(i)
		told, cold := m.TE[i][lc[i]], m.CE[i][lc[i]]
		for k := range te {
			dt := told - te[k]
			if dt <= dag.Eps {
				break
			}
			dc := ce[k] - cold
			ups = append(ups, gainUpgrade{w: ratio(dt, dc), dt: dt, dc: dc, mod: int32(i), typ: typ[k], pos: int32(len(ups))})
		}
	}
	slices.SortFunc(ups, byGainWeight)
	pass := make([]gainMove, len(ups))
	for k, u := range ups {
		pass[k] = gainMove{dc: u.dc, mod: u.mod, typ: u.typ}
	}
	return pass
}

// gainListInstance is one input of TestGAINListKeepsTakeableOptions.
type gainListInstance struct {
	name string
	w    *workflow.Workflow
	m    *workflow.Matrices
}

// gainListInstances returns the 20 paper sizes (three seeds each), the
// tied fork-joins and chains, and instances of four six-type catalogs.
// Three tie on cost: equal rates, rate steps far below costEps, and
// every rate zero. In the fourth, concave, a faster type costs more but
// gains more time per unit of cost, so a task's cost frontier holds
// several options; on the generator's catalog it almost always holds one.
func gainListInstances(t *testing.T) []gainListInstance {
	t.Helper()
	var out []gainListInstance
	for _, size := range gen.PaperProblemSizes() {
		for k := 0; k < 3; k++ {
			w, m, _, _ := diffInstance(t, 300+k, size)
			out = append(out, gainListInstance{fmt.Sprintf("%v seed %d", size, k), w, m})
		}
	}
	for _, ti := range tiedInstances(t) {
		out = append(out, gainListInstance{ti.name, ti.w, ti.m})
	}
	const types = 6
	catalogs := []struct {
		name string
		vt   func(j int) (power, rate float64)
	}{
		{"equal rates", func(j int) (float64, float64) { return 3 * float64(j+1), float64(j/3 + 1) }},
		{"sub-costEps rates", func(j int) (float64, float64) { return 3 * float64(j+1), 1 + float64(j)*1e-13 }},
		{"zero rates", func(j int) (float64, float64) { return 3 * float64(j+1), 0 }},
		{"concave", func(j int) (float64, float64) {
			// Time per unit of work 1-0.15j, cost per unit of work
			// 1+0.3*sqrt(j): the GainWeight against type 1 grows with j.
			tw := 1 - 0.15*float64(j)
			return 3 / tw, (1 + 0.3*math.Sqrt(float64(j))) / tw
		}},
	}
	rng := rand.New(rand.NewSource(31))
	for _, c := range catalogs {
		cat := make(cloud.Catalog, types)
		for j := range cat {
			p, r := c.vt(j)
			cat[j] = cloud.VMType{Name: fmt.Sprintf("VT%d", j+1), Power: p, Rate: r}
		}
		for _, size := range []gen.ProblemSize{{M: 20, E: 80, N: 6}, {M: 60, E: 842, N: 6}} {
			w, _, err := gen.Instance(rng, size)
			if err != nil {
				t.Fatal(err)
			}
			m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, gainListInstance{fmt.Sprintf("%s %v", c.name, size), w, m})
		}
	}
	return out
}

// TestGAINListKeepsTakeableOptions pins GAIN's cost-frontier list to the
// full sorted list of improving options it replaced (fullGainList): the
// kept list is an order-preserving part of the full one, and gainPass
// over either takes the same moves at Cmin, Cmax, above Cmax, at 40
// random budgets and one ulp either side of each kept option's cost
// boundaries (Cmin plus its cost increase, with and without costEps).
func TestGAINListKeepsTakeableOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kept, full, extra := 0, 0, 0
	for _, in := range gainListInstances(t) {
		cmin, cmax := in.m.BudgetRange(in.w)
		lc := in.m.LeastCost(in.w)
		want := fullGainList(in.w, in.m, lc)
		g := &GAIN{Label: "gain3"}
		if _, err := g.SweepInto(nil, in.w, in.m, []float64{cmin}); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		got := g.pass
		kept += len(got)
		full += len(want)
		seen := make([]bool, in.w.NumModules())
		for _, u := range got {
			if seen[u.mod] {
				extra++ // a second option on the task's frontier
			}
			seen[u.mod] = true
		}
		k := 0
		for p, u := range got {
			for k < len(want) && (want[k].mod != u.mod || want[k].typ != u.typ) {
				k++
			}
			if k == len(want) || math.Float64bits(want[k].dc) != math.Float64bits(u.dc) {
				t.Fatalf("%s: kept option %d (module %d, type %d, dc %v) is not next in the full list", in.name, p, u.mod, u.typ, u.dc)
			}
			k++
		}
		budgets := []float64{cmin, cmax, cmax + 1}
		for r := 0; r < 40; r++ {
			budgets = append(budgets, cmin+rng.Float64()*(cmax-cmin))
		}
		for _, u := range got {
			for _, b := range []float64{cmin + u.dc, (cmin + u.dc) - costEps} {
				budgets = append(budgets, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
			}
		}
		moved := make([]bool, in.w.NumModules())
		for _, b := range budgets {
			sWant := slices.Clone(lc)
			clear(moved)
			gainPass(sWant, cmin, want, b, moved)
			sGot := slices.Clone(lc)
			clear(moved)
			gainPass(sGot, cmin, got, b, moved)
			if !sGot.Equal(sWant) {
				t.Fatalf("%s at budget %v (%#x): pruned list gives %v, full list %v", in.name, b, math.Float64bits(b), sGot, sWant)
			}
		}
	}
	t.Logf("kept %d of %d options, %d beyond the first of their task", kept, full, extra)
	if kept >= full {
		t.Errorf("the cost frontier kept all %d options", full)
	}
	if extra < 100 {
		t.Errorf("only %d kept options follow another of their task: too few frontiers of several options to tell a wrong pruning rule", extra)
	}
}
