package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// This file pins the warm-started budget sweeps (Sweeper.SweepInto) and the
// candidate-heap selection itself against naive full-rescan references. The
// references below define warm-start semantics from first principles: level
// 0 solves cold from the least-cost schedule at budgets[0]; level k resumes
// the flat rescan-everything loop from level k-1's schedule and running
// cost. The live implementations must match bit-for-bit.

// refGreedyResume continues the pre-engine Greedy loop (full rescan of all
// candidates and types per iteration) from an arbitrary (s, ctmp) state.
func refGreedyResume(cand CandidateSet, rank Criterion, w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule, ctmp *float64, budget float64) error {
	n := len(m.Catalog)
	for {
		cextra := budget - *ctmp
		if cextra <= 0 {
			return nil
		}
		var cs []int
		if cand == AllModules {
			cs = w.Schedulable()
		} else {
			t, err := dag.NewTiming(w.Graph(), m.Times(s), nil)
			if err != nil {
				return err
			}
			for _, i := range w.Schedulable() {
				if t.IsCritical(i) {
					cs = append(cs, i)
				}
			}
		}
		bi, bj := -1, -1
		var bestDT, bestDC float64
		for _, i := range cs {
			told := m.TE[i][s[i]]
			cold := m.CE[i][s[i]]
			for j := 0; j < n; j++ {
				if j == s[i] {
					continue
				}
				dt := told - m.TE[i][j]
				dc := m.CE[i][j] - cold
				if dt <= dag.Eps {
					continue
				}
				if dc > cextra+costEps {
					continue
				}
				if bi == -1 || upgradeBetter(rank == MaxRatio, dt, dc, bestDT, bestDC) {
					bi, bj, bestDT, bestDC = i, j, dt, dc
				}
			}
		}
		if bi == -1 {
			return nil
		}
		s[bi] = bj
		*ctmp += bestDC
	}
}

// refGreedySweep is the warm-sweep reference for the Greedy family.
func refGreedySweep(cand CandidateSet, rank Criterion, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	s, ctmp, err := checkFeasible(w, m, budgets[0])
	if err != nil {
		return nil, err
	}
	out := make([]workflow.Schedule, 0, len(budgets))
	for _, b := range budgets {
		if err := refGreedyResume(cand, rank, w, m, s, &ctmp, b); err != nil {
			return nil, err
		}
		out = append(out, s.Clone())
	}
	return out, nil
}

// refGain3Sweep is the sweep reference for GAIN3: independent per-level
// solves. The once-per-task rule is defined against a single solve from
// the least-cost schedule, so GAIN is not a Sweeper: a per-level
// continuation would re-admit every task each level and turn GAIN3 into a
// round-based algorithm.
func refGain3Sweep(w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	out := make([]workflow.Schedule, 0, len(budgets))
	for _, b := range budgets {
		s, err := refGainOncePerTask(w, m, b, false)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// refWRFSweep is the warm-sweep reference for Gain3WRF: each level
// continues the round loop from the previous level's schedule.
func refWRFSweep(w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	s, ctmp, err := checkFeasible(w, m, budgets[0])
	if err != nil {
		return nil, err
	}
	out := make([]workflow.Schedule, 0, len(budgets))
	for _, b := range budgets {
		for {
			movedAny := false
			movedThisRound := make(map[int]bool)
			for {
				cextra := b - ctmp
				if cextra <= 0 {
					break
				}
				bi, bj := -1, -1
				best := math.Inf(-1)
				for _, i := range w.Schedulable() {
					if movedThisRound[i] {
						continue
					}
					for j := range m.Catalog {
						if j == s[i] {
							continue
						}
						told, tnew := m.TE[i][s[i]], m.TE[i][j]
						dc := m.CE[i][j] - m.CE[i][s[i]]
						if told-tnew <= dag.Eps || dc > cextra+costEps {
							continue
						}
						wt := math.Inf(1)
						if dc > costEps {
							wt = (told / tnew) / dc
						}
						if wt > best {
							bi, bj, best = i, j, wt
						}
					}
				}
				if bi == -1 {
					break
				}
				ctmp += m.CE[bi][bj] - m.CE[bi][s[bi]]
				s[bi] = bj
				movedThisRound[bi] = true
				movedAny = true
			}
			if !movedAny {
				break
			}
		}
		out = append(out, s.Clone())
	}
	return out, nil
}

// sweepBudgets builds a 5-level ascending budget grid like the campaign
// runners do.
func sweepBudgets(cmin, cmax float64) []float64 {
	out := make([]float64, 5)
	for k := 1; k <= 5; k++ {
		out[k-1] = cmin + float64(k)/5*(cmax-cmin)
	}
	return out
}

func requireSameSweep(t *testing.T, name string, size gen.ProblemSize, budgets []float64, got, want []workflow.Schedule) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s on %v: %d levels, want %d", name, size, len(got), len(want))
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("%s on %v level %d (budget %.6g): schedule diverged from warm reference\n got: %v\nwant: %v",
				name, size, k, budgets[k], got[k], want[k])
		}
	}
}

// TestSweepIntoMatchesWarmReference pins the warm-started sweeps of every
// Sweeper against the full-rescan warm references across paper problem
// sizes, and GAIN3's cold per-level sweep (SweepSchedules' fallback)
// against its independent-solve reference.
func TestSweepIntoMatchesWarmReference(t *testing.T) {
	sizes := gen.PaperProblemSizes()
	if testing.Short() {
		sizes = sizes[:6]
	} else {
		sizes = sizes[:12]
	}
	for _, size := range sizes {
		w, m, cmin, cmax := diffInstance(t, size.M, size)
		budgets := sweepBudgets(cmin, cmax)

		for _, combo := range []struct {
			cand CandidateSet
			rank Criterion
			name string
		}{
			{CriticalOnly, MaxTimeDecrease, "critical-greedy"},
			{CriticalOnly, MaxRatio, "critical-ratio"},
			{AllModules, MaxTimeDecrease, "all-timedec"},
			{AllModules, MaxRatio, "gain-fixpoint"},
		} {
			want, err := refGreedySweep(combo.cand, combo.rank, w, m, budgets)
			if err != nil {
				t.Fatal(err)
			}
			g := &Greedy{Label: combo.name, Candidates: combo.cand, Rank: combo.rank}
			got, err := g.SweepInto(nil, w, m, budgets)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSweep(t, combo.name+" sweep", size, budgets, got, want)
		}

		wantG3, err := refGain3Sweep(w, m, budgets)
		if err != nil {
			t.Fatal(err)
		}
		gotG3, err := SweepSchedules(&GAIN{Variant: 3}, nil, w, m, budgets)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSweep(t, "gain3 sweep", size, budgets, gotG3, wantG3)

		wantWRF, err := refWRFSweep(w, m, budgets)
		if err != nil {
			t.Fatal(err)
		}
		gotWRF, err := (&Gain3WRF{}).SweepInto(nil, w, m, budgets)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSweep(t, "gain3-wrf sweep", size, budgets, gotWRF, wantWRF)
	}
}

// TestSweepIntoReusesDst pins destination reuse and the ascending-budgets
// contract.
func TestSweepIntoReusesDst(t *testing.T) {
	size := gen.ProblemSize{M: 25, E: 201, N: 5}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	budgets := sweepBudgets(cmin, cmax)
	g := CriticalGreedy()
	dst, err := g.SweepInto(nil, w, m, budgets)
	if err != nil {
		t.Fatal(err)
	}
	ptr := &dst[0][0]
	dst2, err := g.SweepInto(dst, w, m, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if &dst2[0][0] != ptr {
		t.Fatal("SweepInto did not reuse per-level schedules")
	}
	if _, err := g.SweepInto(nil, w, m, []float64{budgets[1], budgets[0]}); err == nil {
		t.Fatal("descending budgets accepted")
	}
}

// TestSweepSchedulesColdFallback checks the generic sweep helper: for a
// non-Sweeper it must equal independent per-level solves, and for a
// Sweeper it must delegate to the warm path.
func TestSweepSchedulesColdFallback(t *testing.T) {
	size := gen.ProblemSize{M: 20, E: 95, N: 5}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	budgets := sweepBudgets(cmin, cmax)

	l1 := &LOSS{Variant: 1}
	got, err := SweepSchedules(l1, nil, w, m, budgets)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range budgets {
		want, err := (&LOSS{Variant: 1}).Schedule(w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSchedule(t, "loss1 cold sweep", size, b, got[k], want)
	}

	cg := CriticalGreedy()
	gotCG, err := SweepSchedules(cg, nil, w, m, budgets)
	if err != nil {
		t.Fatal(err)
	}
	wantCG, err := refGreedySweep(CriticalOnly, MaxTimeDecrease, w, m, budgets)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSweep(t, "critical-greedy via SweepSchedules", size, budgets, gotCG, wantCG)
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
