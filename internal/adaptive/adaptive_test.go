package adaptive

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

func exampleConfig(budget float64) Config {
	w, cat := workflow.PaperExample()
	return Config{
		Workflow: w,
		Catalog:  cat,
		Billing:  cloud.HourlyRoundUp,
		Budget:   budget,
	}
}

func TestNoNoiseMatchesAnalytic(t *testing.T) {
	cfg := exampleConfig(57)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The analytic CG result at B=57: MED 5.9333, cost 56.
	if math.Abs(out.Makespan-(2+59.0/15)) > 1e-9 {
		t.Fatalf("makespan %v", out.Makespan)
	}
	if math.Abs(out.Cost-56) > 1e-9 || out.Overspend != 0 {
		t.Fatalf("cost %v overspend %v", out.Cost, out.Overspend)
	}
	// Replanning without noise must change nothing.
	cfg.Replan = true
	out2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out2.Makespan-out.Makespan) > 1e-9 || math.Abs(out2.Cost-out.Cost) > 1e-9 {
		t.Fatalf("replanning changed a noise-free run: %+v vs %+v", out2, out)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := exampleConfig(57)
	cfg.Perturb = Uniform(0.2, 0.5)
	cfg.Seed = 9
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Cost != b.Cost {
		t.Fatal("same seed, different outcomes")
	}
}

func TestInfeasibleBudget(t *testing.T) {
	cfg := exampleConfig(10)
	if _, err := Run(cfg); err == nil {
		t.Fatal("infeasible budget accepted")
	}
}

// TestNegativePerturbRejected requires Run to reject an actual duration
// that is negative or not finite, here for module 2 of the paper example,
// before the run starts. Accepted, a NaN comes out as a NaN makespan and
// cost, and +Inf as an infinite makespan, cost and overspend.
func TestNegativePerturbRejected(t *testing.T) {
	for _, bad := range []float64{-1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		cfg := exampleConfig(57)
		cfg.Perturb = func(rng *rand.Rand, i int, est float64) float64 {
			if i == 2 {
				return bad
			}
			return est
		}
		out, err := Run(cfg)
		if err == nil {
			t.Fatalf("actual duration %v accepted: %+v", bad, out)
		}
		if want := "module 2"; !strings.Contains(err.Error(), want) {
			t.Fatalf("actual duration %v: error %q does not name %s", bad, err, want)
		}
	}
}

func TestOptimisticNoiseLowersCost(t *testing.T) {
	// Everything runs 40% faster than estimated: the actual bill must
	// be at most the plan, with no overspend.
	cfg := exampleConfig(57)
	cfg.Perturb = func(rng *rand.Rand, _ int, est float64) float64 { return est * 0.6 }
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost > 56 || out.Overspend != 0 {
		t.Fatalf("optimistic run billed %v", out.Cost)
	}
}

// TestReplanningReducesOverspend is the headline robustness property:
// under pessimistic noise, re-planning after each completion adapts the
// remaining modules to the budget actually left, so across many seeds the
// adaptive runs overspend no more than the static ones on average.
func TestReplanningReducesOverspend(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var staticOver, adaptiveOver float64
	var staticMk, adaptiveMk float64
	runs := 0
	for trial := 0; trial < 8; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 12, E: 25, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		budget := (cmin + cmax) / 2
		for seed := int64(0); seed < 5; seed++ {
			base := Config{
				Workflow: wf, Catalog: cat, Billing: cloud.HourlyRoundUp,
				Budget: budget, Perturb: Uniform(0.1, 0.6), Seed: seed,
			}
			st, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			base.Replan = true
			ad, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			staticOver += st.Overspend
			adaptiveOver += ad.Overspend
			staticMk += st.Makespan
			adaptiveMk += ad.Makespan
			runs++
		}
	}
	t.Logf("avg overspend static %.2f vs adaptive %.2f; avg makespan %.2f vs %.2f",
		staticOver/float64(runs), adaptiveOver/float64(runs),
		staticMk/float64(runs), adaptiveMk/float64(runs))
	if adaptiveOver > staticOver {
		t.Fatalf("adaptive overspend %.2f above static %.2f", adaptiveOver/float64(runs), staticOver/float64(runs))
	}
}

func TestReplansCountedUnderNoise(t *testing.T) {
	cfg := exampleConfig(57)
	cfg.Perturb = Uniform(0.3, 0.8)
	cfg.Seed = 3
	cfg.Replan = true
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Replans == 0 {
		t.Log("no replan changed the schedule on this seed — acceptable but unusual")
	}
	if err := cfg.Workflow.ValidateSchedule(out.Final, 3); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveAgainstScheduledBaseline(t *testing.T) {
	// Sanity: the engine's no-noise makespan equals the analytic
	// makespan of the same schedule on random instances.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 9, E: 15, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := (cmin + cmax) / 2
		res, err := sched.Run(sched.CriticalGreedy(), wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(Config{Workflow: wf, Catalog: cat, Billing: cloud.HourlyRoundUp, Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.Makespan-res.MED) > 1e-9 || math.Abs(out.Cost-res.Cost) > 1e-9 {
			t.Fatalf("trial %d: engine %+v vs analytic %v/%v", trial, out, res.MED, res.Cost)
		}
	}
}

// TestSimultaneousCompletionsInStartOrder pins the order Run handles
// completions due at the same time in: the order their modules started,
// the sim.Queue's FIFO rule. Module 1 starts at 0, and module 0 at 2,
// after module 2; both finish at 3. Run bills module 1 before module 0,
// where refRun, which took the lowest index first, billed them the other
// way round, and under exact billing the order shows in the cost's last
// bit.
func TestSimultaneousCompletionsInStartOrder(t *testing.T) {
	w := workflow.New()
	late := w.AddModule(workflow.Module{Name: "late", Workload: 3})
	w.AddModule(workflow.Module{Name: "long", Workload: 9})
	first := w.AddModule(workflow.Module{Name: "first", Workload: 6})
	if err := w.AddDependency(first, late, 0); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workflow: w,
		Catalog:  cloud.Catalog{{Name: "vm", Power: 3, Rate: 0.1}},
		Billing:  cloud.Exact{},
		Budget:   1,
	}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := func(hours float64) float64 { return float64(hours * 0.1) }
	startOrder := c(2) + c(3) + c(1)
	indexOrder := c(2) + c(1) + c(3)
	if math.Float64bits(startOrder) == math.Float64bits(indexOrder) {
		t.Fatal("the two orders sum to the same bits: the test shows nothing")
	}
	if out.Makespan != 3 || math.Float64bits(out.Cost) != math.Float64bits(startOrder) {
		t.Fatalf("makespan %v cost %v, want 3 and %v (start order)", out.Makespan, out.Cost, startOrder)
	}
	if math.Float64bits(ref.Cost) != math.Float64bits(indexOrder) {
		t.Fatalf("reference cost %v, want %v (index order)", ref.Cost, indexOrder)
	}
}
