package medcc

import (
	"errors"
	"math"
	"testing"

	"medcc/internal/sched"
	"medcc/internal/serve"
)

func TestSolveQuickstart(t *testing.T) {
	w := NewWorkflow()
	a := w.AddModule(Module{Name: "prepare", Workload: 40})
	b := w.AddModule(Module{Name: "solve", Workload: 120})
	if err := w.AddDependency(a, b, 2.5); err != nil {
		t.Fatal(err)
	}
	types := Catalog{
		{Name: "small", Power: 10, Rate: 1},
		{Name: "large", Power: 40, Rate: 5},
	}
	cmin, cmax, err := BudgetRange(w, types, HourlyBilling)
	if err != nil {
		t.Fatal(err)
	}
	if cmin >= cmax {
		t.Fatalf("degenerate budget range [%v,%v]", cmin, cmax)
	}
	res, err := Solve(w, types, HourlyBilling, cmax, "critical-greedy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > cmax+1e-9 || res.MED <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestSolvePaperExample(t *testing.T) {
	w, cat := PaperExample()
	res, err := Solve(w, cat, nil, 57, "critical-greedy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 57 {
		t.Fatalf("cost %v over budget", res.Cost)
	}
	if _, err := Solve(w, cat, nil, 40, "critical-greedy"); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible budget: err = %v", err)
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	w, cat := PaperExample()
	if _, err := Solve(w, cat, nil, 57, "does-not-exist"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmsListed(t *testing.T) {
	names := Algorithms()
	want := map[string]bool{"critical-greedy": false, "gain3": false, "gain3-wrf": false, "optimal": false, "loss1": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("algorithm %q missing from %v", n, names)
		}
	}
}

func TestSolveAllAlgorithmsOnExample(t *testing.T) {
	w, cat := PaperExample()
	for _, name := range Algorithms() {
		res, err := Solve(w, cat, nil, 56, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cost > 56+1e-9 {
			t.Fatalf("%s overspent: %v", name, res.Cost)
		}
	}
}

func TestPlanReuseAndSimulate(t *testing.T) {
	w, cat := PaperExample()
	res, err := Solve(w, cat, nil, 48, "critical-greedy")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanReuse(w, res)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumVMs() >= 6 {
		t.Fatalf("no reuse: %d VMs", plan.NumVMs())
	}
	simRes, err := Simulate(w, res, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simRes.Makespan-res.MED) > 1e-9 || math.Abs(simRes.Cost-res.Cost) > 1e-9 {
		t.Fatalf("simulation disagrees with analytic: %+v vs %+v", simRes, res)
	}
	// Cold-start replay with reuse still completes and costs something.
	cold, err := Simulate(w, res, plan, 0.5, 2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Makespan <= simRes.Makespan {
		t.Fatal("boot/transfer delays had no effect")
	}
}

func TestNewPipelineFacade(t *testing.T) {
	p := NewPipeline([]float64{30, 60, 90})
	cat := Catalog{{Name: "a", Power: 30, Rate: 1}, {Name: "b", Power: 90, Rate: 4}}
	res, err := Solve(p, cat, PerSecondBilling, 1e9, "optimal")
	if err != nil {
		t.Fatal(err)
	}
	if res.MED <= 0 {
		t.Fatal("bad pipeline MED")
	}
}

// TestResultReportsTruncation requires the facade's Truncated to be
// sched's: the result Solve and SolveDeadline build from a node-limited
// exact search is flagged, from a completed one it is not, and Solve's
// "optimal" equals a fresh sched.Run field for field.
func TestResultReportsTruncation(t *testing.T) {
	w, cat := PaperExample()
	m, err := w.BuildMatrices(cat, HourlyBilling)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxNodes int64
		want     bool
	}{{2, true}, {0, false}} {
		res, err := sched.Run(&sched.Optimal{MaxNodes: tc.maxNodes}, w, m, 57)
		if err != nil {
			t.Fatal(err)
		}
		if got := newResult(res, m); res.Truncated != tc.want || got.Truncated != tc.want {
			t.Fatalf("MaxNodes %d: sched Truncated %v, facade %v, want %v", tc.maxNodes, res.Truncated, got.Truncated, tc.want)
		}
		dres, err := (&sched.Optimal{MaxNodes: tc.maxNodes}).Deadline(w, m, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got := newResult(dres, m); dres.Truncated != tc.want || got.Truncated != tc.want {
			t.Fatalf("deadline maxNodes %d: sched Truncated %v, facade %v, want %v", tc.maxNodes, dres.Truncated, got.Truncated, tc.want)
		}
	}
	got, err := Solve(w, cat, HourlyBilling, 57, "optimal")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.Run(&sched.Optimal{}, w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schedule.Equal(want.Schedule) || got.MED != want.MED || got.Cost != want.Cost || got.Truncated != want.Truncated {
		t.Fatalf("Solve = %+v, sched.Run = %+v", got, want)
	}
}

func TestSolveDeadlineFacade(t *testing.T) {
	w, cat := PaperExample()
	// Fastest makespan is 4.6; least-cost makespan 17.33.
	if _, err := SolveDeadline(w, cat, nil, 3, false); !errors.Is(err, ErrDeadline) {
		t.Fatalf("tight deadline err = %v", err)
	}
	heur, err := SolveDeadline(w, cat, nil, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SolveDeadline(w, cat, nil, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	if heur.MED > 12+1e-9 || exact.MED > 12+1e-9 {
		t.Fatal("deadline violated")
	}
	if exact.Cost > heur.Cost+1e-9 {
		t.Fatalf("exact dual (%v) costlier than heuristic (%v)", exact.Cost, heur.Cost)
	}
	// Duality spot-check: scheduling with the exact dual's cost as the
	// budget must achieve a makespan within the deadline.
	back, err := Solve(w, cat, nil, exact.Cost, "optimal")
	if err != nil {
		t.Fatal(err)
	}
	if back.MED > 12+1e-9 {
		t.Fatalf("duality violated: budget %v gives MED %v", exact.Cost, back.MED)
	}
}

func TestParetoFrontFacade(t *testing.T) {
	w, cat := PaperExample()
	front, err := ParetoFront(w, cat, nil, 17, "optimal")
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 3 {
		t.Fatalf("front too small: %d points", len(front))
	}
	if front[0].Cost != 48 {
		t.Fatalf("front starts at %v, want Cmin 48", front[0].Cost)
	}
	for k := 1; k < len(front); k++ {
		if front[k].Cost <= front[k-1].Cost || front[k].MED >= front[k-1].MED {
			t.Fatal("front not strictly improving")
		}
	}
	if _, err := ParetoFront(w, cat, nil, 5, "nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunAdaptiveFacade(t *testing.T) {
	w, cat := PaperExample()
	out, err := RunAdaptive(AdaptiveConfig{
		Workflow: w, Catalog: cat, Billing: HourlyBilling,
		Budget: 57, Perturb: UniformNoise(0.1, 0.5), Seed: 3, Replan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan <= 0 || out.Cost <= 0 {
		t.Fatalf("bad outcome %+v", out)
	}
	if err := w.ValidateSchedule(out.Final, len(cat)); err != nil {
		t.Fatal(err)
	}
}

func TestExactVsHourlyBilling(t *testing.T) {
	w, cat := PaperExample()
	_, hmax, err := BudgetRange(w, cat, HourlyBilling)
	if err != nil {
		t.Fatal(err)
	}
	_, emax, err := BudgetRange(w, cat, ExactBilling)
	if err != nil {
		t.Fatal(err)
	}
	if emax > hmax {
		t.Fatalf("exact Cmax %v above hourly %v", emax, hmax)
	}
}

// TestNaNBudgetsAndDeadlinesRejected pins that a NaN budget or deadline
// errors on every entry point that takes one, instead of slipping past a
// "budget < Cmin" style comparison (false for NaN) and returning a
// schedule: every registered scheduler through Solve, both deadline
// solvers, sweeps with a NaN level, and the in-process serve path.
func TestNaNBudgetsAndDeadlinesRejected(t *testing.T) {
	nan := math.NaN()
	w, cat := PaperExample()
	m, err := w.BuildMatrices(cat, HourlyBilling)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var res serve.Result
	var reqErr *serve.RequestError

	type tc struct {
		name string
		run  func() error
		ok   func(error) bool
	}
	isInfeasible := func(err error) bool { return errors.Is(err, ErrInfeasible) }
	isDeadline := func(err error) bool { return errors.Is(err, ErrDeadline) }
	isErr := func(err error) bool { return err != nil }
	var cases []tc
	for _, name := range Algorithms() {
		name := name
		cases = append(cases, tc{"Solve " + name, func() error {
			_, err := Solve(w, cat, HourlyBilling, nan, name)
			return err
		}, isInfeasible})
	}
	for _, alg := range []string{"critical-greedy", "gain3", "loss1"} {
		alg := alg
		sweep := func(budgets ...float64) func() error {
			return func() error {
				sch, err := sched.Get(alg)
				if err != nil {
					return err
				}
				_, err = sched.SweepSchedules(sch.(sched.IntoScheduler), nil, w, m, budgets)
				return err
			}
		}
		cases = append(cases,
			tc{alg + " sweep, NaN first level", sweep(nan, cmax), isErr},
			tc{alg + " sweep, NaN middle level", sweep(cmin, nan, cmax), isErr},
			tc{alg + " sweep, NaN last level", sweep(cmin, cmax, nan), isErr},
			tc{alg + " sweep, NaN only level", sweep(nan), isInfeasible})
	}
	cases = append(cases,
		tc{"SolveDeadline heuristic", func() error {
			_, err := SolveDeadline(w, cat, HourlyBilling, nan, false)
			return err
		}, isDeadline},
		tc{"SolveDeadline exact", func() error {
			_, err := SolveDeadline(w, cat, HourlyBilling, nan, true)
			return err
		}, isDeadline},
		tc{"serve budget", func() error {
			return srv.Schedule(serve.Params{WorkflowRef: "example", CatalogRef: "paper", Budget: nan}, &res)
		}, isInfeasible},
		tc{"serve budget fraction", func() error {
			return srv.Schedule(serve.Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: nan}, &res)
		}, func(err error) bool { return errors.As(err, &reqErr) }},
	)
	for _, c := range cases {
		if err := c.run(); !c.ok(err) {
			t.Errorf("%s: got error %v", c.name, err)
		}
	}
}
