package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// TestAllSchedulersBudgetInvariant checks the core safety property of every
// registered algorithm over random instances: feasible budgets yield
// schedules within budget; budgets below Cmin yield ErrInfeasible.
func TestAllSchedulersBudgetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 9, E: 15, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		for _, name := range Names() {
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "optimal" && trial >= 3 {
				continue // keep the exhaustive search cheap
			}
			for _, frac := range []float64{0, 0.3, 0.7, 1, 1.5} {
				b := cmin + frac*(cmax-cmin)
				res, err := Run(sc, wf, m, b)
				if err != nil {
					t.Fatalf("trial %d %s B=%v: %v", trial, name, b, err)
				}
				if res.Cost > b+1e-9 {
					t.Fatalf("trial %d: %s overspent %v > %v", trial, name, res.Cost, b)
				}
				if math.IsNaN(res.MED) || res.MED <= 0 {
					t.Fatalf("trial %d: %s MED = %v", trial, name, res.MED)
				}
			}
			if _, err := sc.Schedule(wf, m, cmin-1); err == nil {
				t.Fatalf("%s accepted infeasible budget", name)
			}
		}
	}
}

// TestCGEnvelopeQuick is the property-based form of the Fig. 6 staircase,
// weakened to what a greedy actually guarantees: CG never beats the
// least-cost MED ceiling from above or spends over budget, and its two
// endpoints are ordered — at B = Cmin it returns the least-cost schedule,
// at B >= Cmax it reaches the fastest schedule's makespan. (Strict
// monotonicity between arbitrary budgets does NOT hold for greedy
// reschedulers: a larger budget can bait the max-ΔT rule onto a worse
// trajectory. Verified non-monotone on seed -473611300228860469.)
func TestCGEnvelopeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 7, E: 12, N: 3})
		if err != nil {
			return false
		}
		m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			return false
		}
		cmin, cmax := m.BudgetRange(wf)
		lcEv, err := wf.Evaluate(m, m.LeastCost(wf), nil)
		if err != nil {
			return false
		}
		fastEv, err := wf.Evaluate(m, m.Fastest(wf), nil)
		if err != nil {
			return false
		}
		for k := 0; k <= 10; k++ {
			b := cmin + float64(k)/10*(cmax-cmin)
			res, err := Run(CriticalGreedy(), wf, m, b)
			if err != nil {
				return false
			}
			if res.Cost > b+1e-9 || res.MED > lcEv.Makespan+1e-9 {
				return false
			}
		}
		atMin, err := Run(CriticalGreedy(), wf, m, cmin)
		if err != nil || math.Abs(atMin.MED-lcEv.Makespan) > 1e-9 {
			return false
		}
		atMax, err := Run(CriticalGreedy(), wf, m, cmax)
		if err != nil || math.Abs(atMax.MED-fastEv.Makespan) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCGBoundedByLeastCostAndOptimal sandwiches CG between the least-cost
// schedule's MED (upper bound) and the optimum (lower bound).
func TestCGBoundedByLeastCostAndOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 6, E: 9, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := cmin + rng.Float64()*(cmax-cmin)
		lcEv, _ := wf.Evaluate(m, m.LeastCost(wf), nil)
		cg, err := Run(CriticalGreedy(), wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Run(&Optimal{}, wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if cg.MED > lcEv.Makespan+1e-9 {
			t.Fatalf("trial %d: CG %v worse than least-cost %v", trial, cg.MED, lcEv.Makespan)
		}
		if cg.MED < opt.MED-1e-9 {
			t.Fatalf("trial %d: CG %v beats 'optimal' %v — optimal is broken", trial, cg.MED, opt.MED)
		}
	}
}

// TestBillingPolicyAblation verifies the DESIGN.md §5 observation: moving
// from hourly round-up to exact billing shrinks Cmin (no rounding
// overhead) and never hurts the achievable MED at a given budget.
func TestBillingPolicyAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 10, E: 17, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	hourly, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
	exact, _ := wf.BuildMatrices(cat, cloud.Exact{})
	hc, _ := hourly.BudgetRange(wf)
	ec, _ := exact.BudgetRange(wf)
	if ec > hc+1e-9 {
		t.Fatalf("exact Cmin %v above hourly Cmin %v", ec, hc)
	}
	b := hc * 1.1
	hres, err := Run(CriticalGreedy(), wf, hourly, b)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := Run(CriticalGreedy(), wf, exact, b)
	if err != nil {
		t.Fatal(err)
	}
	// Under exact billing every upgrade is cheaper or equal, so CG can
	// afford at least as much speed.
	if eres.MED > hres.MED+1e-9 {
		t.Fatalf("exact billing MED %v worse than hourly %v", eres.MED, hres.MED)
	}
}

// optTestNodeCap bounds the optimal search in cross-instance reuse tests:
// enough nodes to explore the small trials exhaustively, small enough that
// the 4^25-space trials return their (identical) incumbents quickly.
const optTestNodeCap = 200_000

// TestIntoSchedulersReusableAcrossInstances checks the steady-state
// contract of every IntoScheduler in the registry: one instance, its
// scratch rebound across a stream of random instances and budgets, must
// return exactly the schedule a throwaway instance computes. This is the
// property the zero-allocation engine rests on — stale scratch from a
// previous workflow or budget must never leak into the next result.
func TestIntoSchedulersReusableAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	reused := map[string]IntoScheduler{}
	for _, name := range Names() {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if into, ok := sc.(IntoScheduler); ok {
			// Cap the exhaustive search's node budget so the M=25 trials
			// stay quick. The fresh comparison instances below get the
			// same cap, and a truncated search stops at the same node,
			// so the reused-vs-fresh differential remains exact.
			if o, isOpt := sc.(*Optimal); isOpt {
				o.MaxNodes = optTestNodeCap
			}
			reused[name] = into
		}
	}
	if len(reused) == 0 {
		t.Fatal("no IntoScheduler in registry")
	}
	var dst map[string][]int
	for trial := 0; trial < 10; trial++ {
		sizes := []gen.ProblemSize{
			{M: 8, E: 12, N: 3}, {M: 14, E: 40, N: 5}, {M: 25, E: 120, N: 4},
		}
		wf, cat, err := gen.Instance(rng, sizes[trial%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := cmin + rng.Float64()*(cmax-cmin)
		if dst == nil {
			dst = map[string][]int{}
		}
		for name, into := range reused {
			fresh, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if o, isOpt := fresh.(*Optimal); isOpt {
				o.MaxNodes = optTestNodeCap
			}
			want, err := fresh.Schedule(wf, m, b)
			if err != nil {
				t.Fatalf("trial %d %s: fresh: %v", trial, name, err)
			}
			got, err := into.ScheduleInto(dst[name], wf, m, b)
			if err != nil {
				t.Fatalf("trial %d %s: reused: %v", trial, name, err)
			}
			dst[name] = got
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: len %d != %d", trial, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: module %d: reused %d != fresh %d",
						trial, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReturnedSchedulesSurviveLaterSolves checks that no registered
// scheduler hands out its own scratch: a schedule returned by Schedule,
// or by ScheduleInto with no destination, must be unchanged by later
// solves on the same scheduler, at other budgets and on another
// instance.
func TestReturnedSchedulesSurviveLaterSolves(t *testing.T) {
	type inst struct {
		w          *workflow.Workflow
		m          *workflow.Matrices
		cmin, cmax float64
	}
	var insts []inst
	rng := rand.New(rand.NewSource(53))
	for _, size := range []gen.ProblemSize{{M: 8, E: 12, N: 3}, {M: 10, E: 17, N: 4}} {
		w, cat, err := gen.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(w)
		insts = append(insts, inst{w, m, cmin, cmax})
	}
	for _, name := range Names() {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		into, _ := sc.(IntoScheduler)
		var kept, want []workflow.Schedule
		for _, in := range insts {
			for _, frac := range []float64{0, 0.5, 1} {
				b := BudgetAt(in.cmin, in.cmax, frac)
				s, err := sc.Schedule(in.w, in.m, b)
				if err != nil {
					t.Fatal(err)
				}
				kept, want = append(kept, s), append(want, s.Clone())
				if into == nil {
					continue
				}
				if s, err = into.ScheduleInto(nil, in.w, in.m, b); err != nil {
					t.Fatal(err)
				}
				kept, want = append(kept, s), append(want, s.Clone())
			}
		}
		for k := range kept {
			if !kept[k].Equal(want[k]) {
				t.Fatalf("%s: result %d changed by later solves: now %v, returned %v", name, k, kept[k], want[k])
			}
		}
	}
}
