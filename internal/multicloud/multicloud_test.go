package multicloud

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// twoRegions builds a fabric with a cheap-but-slow region and a
// fast-but-pricey region, moderate inter-cloud bandwidth.
func twoRegions() *Fabric {
	return &Fabric{
		Regions: []Region{
			{
				Name: "economy",
				Types: cloud.Catalog{
					{Name: "e1", Power: 3, Rate: 1},
					{Name: "e2", Power: 5, Rate: 2},
				},
				EgressCostPerUnit: 0.2,
			},
			{
				Name: "premium",
				Types: cloud.Catalog{
					{Name: "p1", Power: 12, Rate: 6},
					{Name: "p2", Power: 24, Rate: 14},
				},
				EgressCostPerUnit: 0.5,
			},
		},
		Bandwidth: [][]float64{{0, 20}, {20, 0}},
		Delay:     [][]float64{{0, 0.05}, {0.05, 0}},
		Billing:   cloud.HourlyRoundUp,
	}
}

func chainWorkflow(t *testing.T, workloads []float64, ds float64) *workflow.Workflow {
	t.Helper()
	w := workflow.New()
	for i, wl := range workloads {
		w.AddModule(workflow.Module{Name: "m", Workload: wl})
		if i > 0 {
			if err := w.AddDependency(i-1, i, ds); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

func TestFabricValidate(t *testing.T) {
	if err := twoRegions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Fabric{
		{},
		{Regions: []Region{{Name: "", Types: cloud.PaperExampleCatalog()}}},
		{Regions: []Region{
			{Name: "a", Types: cloud.PaperExampleCatalog()},
			{Name: "a", Types: cloud.PaperExampleCatalog()},
		}},
		{Regions: []Region{{Name: "a", Types: cloud.Catalog{}}}},
		{Regions: []Region{{Name: "a", Types: cloud.PaperExampleCatalog(), EgressCostPerUnit: -1}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad fabric %d accepted", i)
		}
	}
	// Matrix shape errors.
	f := twoRegions()
	f.Bandwidth = [][]float64{{0, 1}}
	if err := f.Validate(); err == nil {
		t.Fatal("short bandwidth matrix accepted")
	}
	f = twoRegions()
	f.Bandwidth[0][1] = 0
	if err := f.Validate(); err == nil {
		t.Fatal("zero inter-region bandwidth accepted")
	}
	f = twoRegions()
	f.Billing = nil
	if err := f.Validate(); err == nil {
		t.Fatal("nil billing accepted")
	}
}

func TestEvaluateAccountsTransfers(t *testing.T) {
	f := twoRegions()
	w := chainWorkflow(t, []float64{12, 12}, 40)
	a := f.emptyAssignment(w)
	// Both in economy on e1: no transfers.
	a.Region[0], a.Type[0] = 0, 0
	a.Region[1], a.Type[1] = 0, 0
	same, err := f.Evaluate(w, a)
	if err != nil {
		t.Fatal(err)
	}
	if same.TransferCost != 0 {
		t.Fatalf("intra-region transfer cost %v", same.TransferCost)
	}
	// 12/3 = 4h each, serial: makespan 8.
	if math.Abs(same.Makespan-8) > 1e-9 {
		t.Fatalf("makespan %v, want 8", same.Makespan)
	}
	// Split across regions: pay 40 units egress at economy's 0.2 and a
	// transfer of 40/20 + 0.05 = 2.05 on the edge.
	a.Region[1], a.Type[1] = 1, 0
	split, err := f.Evaluate(w, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(split.TransferCost-8) > 1e-9 {
		t.Fatalf("egress cost %v, want 8", split.TransferCost)
	}
	wantMakespan := 4 + 2.05 + 1 // e1 4h, transfer, p1 1h
	if math.Abs(split.Makespan-wantMakespan) > 1e-9 {
		t.Fatalf("makespan %v, want %v", split.Makespan, wantMakespan)
	}
}

func TestEvaluateRejectsBadAssignment(t *testing.T) {
	f := twoRegions()
	w := chainWorkflow(t, []float64{10, 10}, 1)
	a := f.emptyAssignment(w)
	if _, err := f.Evaluate(w, a); err == nil {
		t.Fatal("unassigned modules accepted")
	}
	a.Region[0], a.Type[0] = 0, 0
	a.Region[1], a.Type[1] = 5, 0
	if _, err := f.Evaluate(w, a); err == nil {
		t.Fatal("out-of-range region accepted")
	}
	a.Region[1], a.Type[1] = 1, 9
	if _, err := f.Evaluate(w, a); err == nil {
		t.Fatal("out-of-range type accepted")
	}
}

func TestLeastCostPrefersCoLocationUnderEgress(t *testing.T) {
	// Heavy edges make the per-module-cheapest split more expensive
	// than staying in one region; LeastCost must return the co-located
	// variant.
	f := twoRegions()
	// Make premium's p1 the cheapest executor for big modules (rate 6,
	// power 12 vs economy 1/3): WL=36: economy e1 12h/$12; premium p1
	// 3h/$18. Economy stays cheapest per module, so per-module-cheapest
	// co-locates anyway; invert with a module whose rounding favors
	// premium: WL=2: e1 0.67h/$1; p1 0.17h/$6. Still economy. With
	// this fabric per-module-cheapest is all-economy, so the property
	// to check is that LeastCost never splits when splitting pays
	// egress for nothing.
	w := chainWorkflow(t, []float64{36, 2, 36}, 100)
	a, err := f.LeastCost(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range w.Schedulable() {
		if a.Region[i] != a.Region[0] {
			t.Fatalf("least-cost split regions: %v", a.Region)
		}
	}
}

func TestScheduleBudgetInvariants(t *testing.T) {
	f := twoRegions()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		w, err := gen.Random(rng, gen.Params{
			Modules: 8, Edges: 14,
			WorkloadMin: 10, WorkloadMax: 80,
			DataSizeMax: 20, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		lc, err := f.LeastCost(w)
		if err != nil {
			t.Fatal(err)
		}
		lcEv, err := f.Evaluate(w, lc)
		if err != nil {
			t.Fatal(err)
		}
		cmin := lcEv.TotalCost()
		for _, frac := range []float64{1.0, 1.3, 2.0, 4.0} {
			b := cmin * frac
			res, err := f.Schedule(w, b)
			if err != nil {
				t.Fatalf("trial %d frac %v: %v", trial, frac, err)
			}
			if res.Cost > b+1e-9 {
				t.Fatalf("trial %d: cost %v over budget %v", trial, res.Cost, b)
			}
			if res.MED > lcEv.Makespan+1e-9 {
				t.Fatalf("trial %d: MED %v worse than least-cost %v", trial, res.MED, lcEv.Makespan)
			}
			if err := f.ValidateAssignment(w, res.Assignment); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if _, err := f.Schedule(w, cmin*0.5); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("trial %d: infeasible budget err = %v", trial, err)
		}
	}
}

func TestMultiCloudBeatsBestSingleRegion(t *testing.T) {
	// A two-branch workflow: a huge compute-heavy branch (cheap region
	// can't speed it, premium can) and light glue modules. With light
	// edges, shipping the heavy branch to the premium region wins over
	// any single region at a budget that a premium-only run of the
	// whole workflow cannot afford.
	f := twoRegions()
	w := workflow.New()
	glue1 := w.AddModule(workflow.Module{Name: "glue1", Workload: 3})
	heavy := w.AddModule(workflow.Module{Name: "heavy", Workload: 240})
	light := w.AddModule(workflow.Module{Name: "light", Workload: 6})
	glue2 := w.AddModule(workflow.Module{Name: "glue2", Workload: 3})
	for _, e := range [][2]int{{glue1, heavy}, {glue1, light}, {heavy, glue2}, {light, glue2}} {
		if err := w.AddDependency(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	// All-economy least-cost is ~84; running everything in the premium
	// region costs >= 154; shipping just the heavy module to premium
	// costs ~144 plus pennies of egress. A budget of 150 therefore
	// admits the hybrid but not the premium-only schedule.
	const budget = 150.0

	multi, err := f.Schedule(w, budget)
	if err != nil {
		t.Fatal(err)
	}
	single, err := f.SingleRegionBest(w, budget)
	if err != nil {
		t.Fatal(err)
	}
	if multi.MED >= single.MED {
		t.Fatalf("multi-cloud MED %v not better than best single region %v", multi.MED, single.MED)
	}
	// And the winning assignment really does span regions.
	regions := map[int]bool{}
	for _, i := range w.Schedulable() {
		regions[multi.Assignment.Region[i]] = true
	}
	if len(regions) < 2 {
		t.Fatalf("multi-cloud schedule stayed in one region: %v", multi.Assignment.Region)
	}
}

func TestSingleRegionBestInfeasibleEverywhere(t *testing.T) {
	f := twoRegions()
	w := chainWorkflow(t, []float64{100}, 0)
	if _, err := f.SingleRegionBest(w, 0.01); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}
