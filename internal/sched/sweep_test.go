package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// This file pins the budget sweeps (SweepSchedules, Sweeper.SweepInto)
// to their contract, level k equals a fresh ScheduleInto at budgets[k],
// and the candidate-heap selection itself against the naive full-rescan
// references of differential_test.go.

// sweepBudgets builds a 5-level ascending budget grid like the campaign
// runners do.
func sweepBudgets(cmin, cmax float64) []float64 {
	out := make([]float64, 5)
	for k := 1; k <= 5; k++ {
		out[k-1] = cmin + float64(k)/5*(cmax-cmin)
	}
	return out
}

// TestSweepIntoReusesDst pins destination reuse and the ascending-budgets
// contract for both sweep implementations.
func TestSweepIntoReusesDst(t *testing.T) {
	size := gen.ProblemSize{M: 25, E: 201, N: 5}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	budgets := sweepBudgets(cmin, cmax)
	for _, sw := range []Sweeper{CriticalGreedy(), &GAIN{Label: "gain3"}} {
		dst, err := sw.SweepInto(nil, w, m, budgets, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ptr := &dst[0][0]
		dst2, err := sw.SweepInto(dst, w, m, budgets, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &dst2[0][0] != ptr {
			t.Fatalf("%s: SweepInto did not reuse per-level schedules", sw.Name())
		}
		if _, err := sw.SweepInto(nil, w, m, []float64{budgets[1], budgets[0]}, nil, nil); err == nil {
			t.Fatalf("%s: descending budgets accepted", sw.Name())
		}
	}
}

// sweepAlgs are the schedulers the sweep differential covers. shared
// marks the sweeps that reuse work across levels (the four Greedy
// combinations, GAIN1 and GAIN3); gain2, gain3-wrf and loss1 solve each
// level separately.
var sweepAlgs = []struct {
	name   string
	shared bool
}{
	{"critical-greedy", true}, {"critical-ratio", true}, {"all-timedec", true}, {"gain-fixpoint", true},
	{"gain1", true}, {"gain2", false}, {"gain3", true}, {"gain3-wrf", false}, {"loss1", false},
}

// randomSweepBudgets draws an ascending budget list over [cmin, cmax]
// mixing uniform draws, dyadic grid fractions (BudgetAt), Cmin itself,
// levels above Cmax and repeats of the previous level. One list in eight
// starts below Cmin, so every level of it is infeasible.
func randomSweepBudgets(rng *rand.Rand, cmin, cmax float64) []float64 {
	n := 1 + rng.Intn(24)
	out := make([]float64, 0, n+1)
	for len(out) < n {
		var b float64
		switch r := rng.Intn(10); {
		case r < 4:
			b = cmin + rng.Float64()*(cmax-cmin)
		case r < 7:
			b = BudgetAt(cmin, cmax, float64(rng.Intn(17))/16)
		case r == 7:
			b = cmin
		case r == 8:
			b = cmax * (1 + rng.Float64())
		default:
			if len(out) == 0 {
				continue
			}
			b = out[len(out)-1]
		}
		out = append(out, b)
	}
	if rng.Intn(8) == 0 {
		out = append(out, cmin-1-rng.Float64())
	}
	slices.Sort(out)
	return out
}

// boundarySweepBudgets puts levels on both sides of the affordability test
// of every first step: Cmin+dc-costEps, Cmin+dc-costEps/2, Cmin+dc and
// Cmin+dc+costEps for each option's cost increase dc over the least-cost
// schedule. A certificate off by costEps passes random lists but not
// these.
func boundarySweepBudgets(w *workflow.Workflow, m *workflow.Matrices, cmin float64) []float64 {
	lc := m.LeastCost(w)
	var out []float64
	for _, i := range w.Schedulable() {
		for _, j := range m.Options(i) {
			dc := m.CE[i][j] - m.CE[i][lc[i]]
			if dc <= 0 {
				continue
			}
			for _, d := range []float64{-costEps, -costEps / 2, 0, costEps} {
				out = append(out, cmin+dc+d)
			}
		}
	}
	slices.Sort(out)
	return out
}

// requireSweepMatchesSolves checks the Sweeper contract on one budget
// list: level k of SweepSchedules(sw) is the schedule one.ScheduleInto
// returns at budgets[k], or the sweep fails with the error of the first
// level that fails.
func requireSweepMatchesSolves(t *testing.T, name, input string, sw, one IntoScheduler, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) {
	t.Helper()
	got, err := SweepSchedules(sw, nil, w, m, budgets)
	for k, b := range budgets {
		want, werr := one.ScheduleInto(nil, w, m, b)
		if werr != nil {
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("%s on %s: level %d (budget %v) fails with %v, sweep returned %v", name, input, k, b, werr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s on %s: sweep failed (%v) but level %d (budget %v) solves", name, input, err, k, b)
		}
		if !got[k].Equal(want) {
			t.Fatalf("%s on %s: level %d of %d (budget %v) differs from ScheduleInto\n got: %v\nwant: %v",
				name, input, k, len(budgets), b, got[k], want)
		}
	}
	if err != nil {
		t.Fatalf("%s on %s: sweep failed (%v) but every level solves", name, input, err)
	}
}

// TestSweepMatchesScheduleInto is the sweep differential: over random
// paper-size instances and the tied inputs, with random and boundary
// budget lists, every level of every covered scheduler's sweep equals a
// fresh ScheduleInto at that level's budget. Each scheduler sweeps with
// one reused instance, so stale scratch between instances shows too.
// Boundary lists only test the shared sweeps; the per-level ones get
// random lists, gain2 (quadratic solves) on the instances up to m=32.
func TestSweepMatchesScheduleInto(t *testing.T) {
	type input struct {
		name       string
		w          *workflow.Workflow
		m          *workflow.Matrices
		cmin, cmax float64
	}
	var inputs []input
	sizes := gen.PaperProblemSizes()
	if testing.Short() {
		sizes = sizes[:10]
	}
	for k, size := range sizes {
		w, m, cmin, cmax := diffInstance(t, 100+k, size)
		inputs = append(inputs, input{fmt.Sprint(size), w, m, cmin, cmax})
	}
	for _, ti := range tiedInstances(t) {
		inputs = append(inputs, input{ti.name + " " + fmt.Sprint(ti.size), ti.w, ti.m, ti.cmin, ti.cmax})
	}
	for a, alg := range sweepAlgs {
		name, shared := alg.name, alg.shared
		seed := int64(17 + a)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sw, one := mustInto(t, name), mustInto(t, name)
			rng := rand.New(rand.NewSource(seed))
			for _, in := range inputs {
				if name == "gain2" && in.w.NumModules() > 32 {
					continue
				}
				for r := 0; r < 4; r++ {
					budgets := randomSweepBudgets(rng, in.cmin, in.cmax)
					requireSweepMatchesSolves(t, name, in.name, sw, one, in.w, in.m, budgets)
				}
				if shared {
					budgets := boundarySweepBudgets(in.w, in.m, in.cmin)
					requireSweepMatchesSolves(t, name, in.name+" boundary", sw, one, in.w, in.m, budgets)
				}
			}
		})
	}
}

func mustInto(t *testing.T, name string) IntoScheduler {
	t.Helper()
	s, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.(IntoScheduler)
}

// tiedInstance is an identical-branch workflow: a fork-join or a set of
// parallel chains whose branches carry the same workloads, so several
// critical paths tie exactly and an accept on one of them leaves the
// makespan where it was. Random instances essentially never tie.
type tiedInstance struct {
	name       string
	size       gen.ProblemSize
	w          *workflow.Workflow
	m          *workflow.Matrices
	cmin, cmax float64
}

// tiedInstances builds the tied inputs deterministically: fork-joins and
// parallel chains, each with and without one cross edge between two
// branches, over the paper example's catalog and the simulation catalog.
func tiedInstances(t *testing.T) []tiedInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	var out []tiedInstance
	for _, paperCat := range []bool{true, false} {
		for _, chains := range []bool{false, true} {
			for _, cross := range []bool{false, true} {
				for rep := 0; rep < 3; rep++ {
					cat := cloud.PaperExampleCatalog()
					lo, hi := 10, 120
					if !paperCat {
						cat = cloud.DiminishingCatalog(3+rng.Intn(7), 3, 1, gen.SimulationGamma)
						lo, hi = 100, 1000
					}
					wl := func() float64 { return float64(lo + rng.Intn(hi-lo)) }
					var w *workflow.Workflow
					name := "fork-join"
					if chains {
						// k chains of length n; position p has the same
						// workload on every chain, and the cross edge runs
						// from chain 0 at p to chain 1 at p+1.
						name = "chains"
						k, n := 2+rng.Intn(5), 2+rng.Intn(4)
						w = workflow.New()
						wls := make([]float64, n)
						for p := range wls {
							wls[p] = wl()
						}
						for c := 0; c < k; c++ {
							for p, x := range wls {
								id := w.AddModule(workflow.Module{Name: fmt.Sprintf("c%d_%d", c, p), Workload: x})
								if p > 0 {
									requireDep(t, w, id-1, id)
								}
							}
						}
						if cross {
							p := rng.Intn(n - 1)
							requireDep(t, w, p, n+p+1)
						}
					} else {
						x := wl()
						width := 2 + rng.Intn(24)
						w = gen.ForkJoin(rng, width, x, x)
						if cross {
							a := 1 + rng.Intn(width-1)
							requireDep(t, w, a, a+1)
						}
					}
					if cross {
						name += "+cross"
					}
					if paperCat {
						name += "/paper"
					} else {
						name += "/sim"
					}
					m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
					if err != nil {
						t.Fatal(err)
					}
					cmin, cmax := m.BudgetRange(w)
					size := gen.ProblemSize{M: w.NumModules(), E: w.NumDependencies(), N: len(cat)}
					out = append(out, tiedInstance{name, size, w, m, cmin, cmax})
				}
			}
		}
	}
	return out
}

func requireDep(t *testing.T, w *workflow.Workflow, u, v int) {
	t.Helper()
	if err := w.AddDependency(u, v, 0); err != nil {
		t.Fatal(err)
	}
}

// TestHeapGreedyMatchesNaiveRandom is the randomized property test for the
// candidate heap: over random instances and randomized budgets, each of
// the four (CandidateSet, Criterion) combinations must produce exactly the
// schedule of the naive rescan-everything reference. The tied inputs add
// the accepts random instances never produce, ones that leave the
// makespan unchanged. The combinations run as parallel subtests so the
// -race build exercises concurrent scheduler instances over shared
// (read-only) workflows and matrices.
func TestHeapGreedyMatchesNaiveRandom(t *testing.T) {
	sizes := gen.PaperProblemSizes()
	combos := []struct {
		cand CandidateSet
		rank Criterion
		name string
	}{
		{CriticalOnly, MaxTimeDecrease, "critical+timedec"},
		{CriticalOnly, MaxRatio, "critical+ratio"},
		{AllModules, MaxTimeDecrease, "all+timedec"},
		{AllModules, MaxRatio, "all+ratio"},
	}
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(4242 + int64(combo.cand)*7 + int64(combo.rank)))
			g := &Greedy{Label: combo.name, Candidates: combo.cand, Rank: combo.rank}
			for trial := 0; trial < trials; trial++ {
				size := sizes[rng.Intn(12)]
				w, m, cmin, cmax := diffInstance(t, rng.Intn(50), size)
				budget := cmin + rng.Float64()*(cmax-cmin)
				want, err := refGreedy(combo.cand, combo.rank, w, m, budget)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.ScheduleInto(nil, w, m, budget)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSchedule(t, combo.name, size, budget, got, want)
			}
			for _, ti := range tiedInstances(t) {
				for k := 0; k < 3; k++ {
					budget := ti.cmin + rng.Float64()*(ti.cmax-ti.cmin)
					want, err := refGreedy(combo.cand, combo.rank, ti.w, ti.m, budget)
					if err != nil {
						t.Fatal(err)
					}
					got, err := g.ScheduleInto(nil, ti.w, ti.m, budget)
					if err != nil {
						t.Fatal(err)
					}
					requireSameSchedule(t, combo.name+" "+ti.name, ti.size, budget, got, want)
				}
			}
		})
	}
}
