package sched

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// This file pins the schedulers to their pre-incremental behaviour: the
// reference implementations below are verbatim copies of the algorithms as
// they stood before the allocation-free timing engine landed — every
// iteration rebuilds a fresh dag.Timing and scans all VM types. The live
// schedulers must produce bit-for-bit identical schedules (same VM type per
// module, same tie-breaking) on the paper's full problem-size grid.

// refGreedy is the pre-engine Greedy.Schedule: fresh Timing per iteration,
// full type scan, Schedulable() re-built per call.
func refGreedy(cand CandidateSet, rank Criterion, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasible(w, m, budget)
	if err != nil {
		return nil, err
	}
	n := len(m.Catalog)
	better := func(dt, dc, bestDT, bestDC float64) bool {
		switch rank {
		case MaxRatio:
			r, br := ratio(dt, dc), ratio(bestDT, bestDC)
			if r != br {
				return r > br
			}
			return dt > bestDT+dag.Eps
		default:
			if dt > bestDT+dag.Eps {
				return true
			}
			if dt < bestDT-dag.Eps {
				return false
			}
			return dc < bestDC-costEps
		}
	}
	candidates := func() ([]int, error) {
		if cand == AllModules {
			return w.Schedulable(), nil
		}
		t, err := dag.NewTiming(w.Graph(), m.Times(s), nil)
		if err != nil {
			return nil, err
		}
		var out []int
		for _, i := range w.Schedulable() {
			if t.IsCritical(i) {
				out = append(out, i)
			}
		}
		return out, nil
	}
	for {
		cextra := budget - ctmp
		if cextra <= 0 {
			break
		}
		cs, err := candidates()
		if err != nil {
			return nil, err
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
				if bi == -1 || better(dt, dc, bestDT, bestDC) {
					bi, bj, bestDT, bestDC = i, j, dt, dc
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		ctmp += bestDC
	}
	return s, nil
}

// refGainStatic is the pre-engine GAIN1.
func refGainStatic(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasible(w, m, budget)
	if err != nil {
		return nil, err
	}
	type upgrade struct {
		i, j   int
		dt, dc float64
	}
	var ups []upgrade
	for _, i := range w.Schedulable() {
		for j := range m.Catalog {
			if j == s[i] {
				continue
			}
			dt := m.TE[i][s[i]] - m.TE[i][j]
			dc := m.CE[i][j] - m.CE[i][s[i]]
			if dt <= dag.Eps {
				continue
			}
			ups = append(ups, upgrade{i, j, dt, dc})
		}
	}
	sort.SliceStable(ups, func(a, b int) bool {
		ra, rb := ratio(ups[a].dt, ups[a].dc), ratio(ups[b].dt, ups[b].dc)
		if ra != rb {
			return ra > rb
		}
		return ups[a].dt > ups[b].dt
	})
	moved := make(map[int]bool)
	for _, u := range ups {
		if moved[u.i] {
			continue
		}
		if u.dc > budget-ctmp+costEps {
			continue
		}
		s[u.i] = u.j
		moved[u.i] = true
		ctmp += u.dc
	}
	return s, nil
}

// refGainOncePerTask is the pre-engine GAIN2 (makespanWeight) / GAIN3.
func refGainOncePerTask(w *workflow.Workflow, m *workflow.Matrices, budget float64, makespanWeight bool) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasible(w, m, budget)
	if err != nil {
		return nil, err
	}
	moved := make(map[int]bool)
	for {
		cextra := budget - ctmp
		if cextra <= 0 {
			break
		}
		var cur *dag.Timing
		if makespanWeight {
			t, terr := dag.NewTiming(w.Graph(), m.Times(s), nil)
			if terr != nil {
				return nil, terr
			}
			cur = t
		}
		bi, bj := -1, -1
		var bestDT, bestDC float64
		for _, i := range w.Schedulable() {
			if moved[i] {
				continue
			}
			for j := range m.Catalog {
				if j == s[i] {
					continue
				}
				dc := m.CE[i][j] - m.CE[i][s[i]]
				if dc > cextra+costEps {
					continue
				}
				var dt float64
				if makespanWeight {
					if m.TE[i][s[i]]-m.TE[i][j] <= dag.Eps {
						continue
					}
					trial := s.Clone()
					trial[i] = j
					tt, terr := dag.NewTiming(w.Graph(), m.Times(trial), nil)
					if terr != nil {
						return nil, terr
					}
					dt = cur.Makespan - tt.Makespan
				} else {
					dt = m.TE[i][s[i]] - m.TE[i][j]
				}
				if dt <= dag.Eps {
					continue
				}
				if bi == -1 || ratio(dt, dc) > ratio(bestDT, bestDC) ||
					(ratio(dt, dc) == ratio(bestDT, bestDC) && dt > bestDT+dag.Eps) {
					bi, bj, bestDT, bestDC = i, j, dt, dc
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		moved[bi] = true
		ctmp += bestDC
	}
	return s, nil
}

// refLoss is the pre-engine LOSS1 (makespanWeight false) / LOSS2 (true).
func refLoss(w *workflow.Workflow, m *workflow.Matrices, budget float64, makespanWeight bool) (workflow.Schedule, error) {
	if _, _, err := checkFeasible(w, m, budget); err != nil {
		return nil, err
	}
	s := m.Fastest(w)
	ctmp := m.Cost(s)
	for ctmp > budget+costEps {
		var cur *dag.Timing
		if makespanWeight {
			t, err := dag.NewTiming(w.Graph(), m.Times(s), nil)
			if err != nil {
				return nil, err
			}
			cur = t
		}
		bi, bj := -1, -1
		var bestW, bestDC float64
		for _, i := range w.Schedulable() {
			for j := range m.Catalog {
				if j == s[i] {
					continue
				}
				dc := m.CE[i][s[i]] - m.CE[i][j]
				if dc <= costEps {
					continue
				}
				var dt float64
				if makespanWeight {
					trial := s.Clone()
					trial[i] = j
					tt, err := dag.NewTiming(w.Graph(), m.Times(trial), nil)
					if err != nil {
						return nil, err
					}
					dt = tt.Makespan - cur.Makespan
				} else {
					dt = m.TE[i][j] - m.TE[i][s[i]]
				}
				if dt < 0 {
					dt = 0
				}
				wgt := dt / dc
				if bi == -1 || wgt < bestW-dag.Eps ||
					(wgt <= bestW+dag.Eps && dc > bestDC+costEps) {
					bi, bj, bestW, bestDC = i, j, wgt, dc
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		ctmp -= bestDC
	}
	return s, nil
}

// refLossStatic is the pre-engine LOSS3.
func refLossStatic(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	if _, _, err := checkFeasible(w, m, budget); err != nil {
		return nil, err
	}
	s := m.Fastest(w)
	ctmp := m.Cost(s)
	type downgrade struct {
		i, j   int
		weight float64
		save   float64
	}
	var downs []downgrade
	for _, i := range w.Schedulable() {
		for j := range m.Catalog {
			if j == s[i] {
				continue
			}
			save := m.CE[i][s[i]] - m.CE[i][j]
			if save <= costEps {
				continue
			}
			dt := m.TE[i][j] - m.TE[i][s[i]]
			if dt < 0 {
				dt = 0
			}
			downs = append(downs, downgrade{i, j, dt / save, save})
		}
	}
	sort.SliceStable(downs, func(a, b int) bool {
		if downs[a].weight != downs[b].weight {
			return downs[a].weight < downs[b].weight
		}
		return downs[a].save > downs[b].save
	})
	moved := make(map[int]bool)
	for _, d := range downs {
		if ctmp <= budget+costEps {
			break
		}
		if moved[d.i] {
			continue
		}
		ctmp -= m.CE[d.i][s[d.i]] - m.CE[d.i][d.j]
		s[d.i] = d.j
		moved[d.i] = true
	}
	for _, d := range downs {
		if ctmp <= budget+costEps {
			break
		}
		save := m.CE[d.i][s[d.i]] - m.CE[d.i][d.j]
		if save <= costEps {
			continue
		}
		ctmp -= save
		s[d.i] = d.j
	}
	return s, nil
}

// refGain3WRF is the pre-engine Gain3WRF.
func refGain3WRF(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasible(w, m, budget)
	if err != nil {
		return nil, err
	}
	for {
		movedAny := false
		movedThisRound := make(map[int]bool)
		for {
			cextra := budget - ctmp
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
	return s, nil
}

// refDeadlineLoss is the pre-engine DeadlineLoss.
func refDeadlineLoss(w *workflow.Workflow, m *workflow.Matrices, deadline float64) (*Result, error) {
	s := m.Fastest(w)
	ev, err := w.Evaluate(m, s, nil)
	if err != nil {
		return nil, err
	}
	if ev.Makespan > deadline+dag.Eps {
		return nil, ErrDeadline
	}
	cost := ev.Cost
	cur := ev.Makespan
	for {
		bi, bj := -1, -1
		var bestSave, bestDM float64
		for _, i := range w.Schedulable() {
			for j := range m.Catalog {
				if j == s[i] {
					continue
				}
				save := m.CE[i][s[i]] - m.CE[i][j]
				if save <= costEps {
					continue
				}
				trial := s.Clone()
				trial[i] = j
				t, terr := dag.NewTiming(w.Graph(), m.Times(trial), nil)
				if terr != nil {
					return nil, terr
				}
				if t.Makespan > deadline+dag.Eps {
					continue
				}
				dm := t.Makespan - cur
				if bi == -1 || save > bestSave+costEps ||
					(save >= bestSave-costEps && dm < bestDM-dag.Eps) {
					bi, bj, bestSave, bestDM = i, j, save, dm
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		cost -= bestSave
		cur += bestDM
	}
	return &Result{Schedule: s, MED: cur, Cost: cost}, nil
}

// diffInstance builds instance k of a paper problem size exactly like the
// experiment harness (internal/exper.buildInstance).
func diffInstance(t *testing.T, k int, size gen.ProblemSize) (*workflow.Workflow, *workflow.Matrices, float64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(2013 + int64(k)*1_000_003))
	w, cat, err := gen.Instance(rng, size)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	return w, m, cmin, cmax
}

// TestHandBuiltMatricesNeedOptions pins the option-table contract: every
// registered scheduler and DeadlineLoss reject matrices filled in by hand
// without BuildOptions with ErrNoOptions, and once BuildOptions has run
// the same matrices schedule exactly like BuildMatrices' own.
func TestHandBuiltMatricesNeedOptions(t *testing.T) {
	size := gen.ProblemSize{M: 10, E: 17, N: 4}
	w, built, cmin, cmax := diffInstance(t, 1, size)
	m := &workflow.Matrices{TE: built.TE, CE: built.CE, Catalog: built.Catalog, Billing: built.Billing}
	budget := (cmin + cmax) / 2
	deadline := math.Inf(1)
	for _, name := range Names() {
		alg, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := alg.Schedule(w, m, budget); !errors.Is(err, ErrNoOptions) {
			t.Errorf("%s: error %v, want ErrNoOptions", name, err)
		}
	}
	if _, err := DeadlineLoss(w, m, deadline); !errors.Is(err, ErrNoOptions) {
		t.Errorf("deadline-loss: error %v, want ErrNoOptions", err)
	}

	m.BuildOptions()
	for _, name := range Names() {
		algA, _ := Get(name)
		algB, _ := Get(name)
		want, err := algA.Schedule(w, built, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := algB.Schedule(w, m, budget)
		if err != nil {
			t.Fatalf("%s after BuildOptions: %v", name, err)
		}
		requireSameSchedule(t, name, size, budget, got, want)
	}
	want, err := DeadlineLoss(w, built, deadline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DeadlineLoss(w, m, deadline)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSchedule(t, "deadline-loss", size, budget, got.Schedule, want.Schedule)
}

func requireSameSchedule(t *testing.T, name string, size gen.ProblemSize, budget float64, got, want workflow.Schedule) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s on %v at budget %.6g: schedule diverged from reference\n got: %v\nwant: %v",
			name, size, budget, got, want)
	}
}

// TestDifferentialPaperGrid is the acceptance-criteria differential: CG,
// GAIN3, gain3-wrf, LOSS1, and DeadlineLoss must match the pre-engine
// reference bit-for-bit across all 20 paper problem sizes x 5 budget
// levels.
func TestDifferentialPaperGrid(t *testing.T) {
	sizes := gen.PaperProblemSizes()
	if testing.Short() {
		sizes = sizes[:8]
	}
	for _, size := range sizes {
		w, m, cmin, cmax := diffInstance(t, size.M, size)
		for k := 1; k <= 5; k++ {
			budget := cmin + float64(k)/5*(cmax-cmin)

			wantCG, err := refGreedy(CriticalOnly, MaxTimeDecrease, w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			gotCG, err := CriticalGreedy().Schedule(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "critical-greedy", size, budget, gotCG, wantCG)

			wantG3, err := refGainOncePerTask(w, m, budget, false)
			if err != nil {
				t.Fatal(err)
			}
			gotG3, err := (&GAIN{Variant: 3}).Schedule(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "gain3", size, budget, gotG3, wantG3)

			wantWRF, err := refGain3WRF(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			gotWRF, err := (&Gain3WRF{}).Schedule(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "gain3-wrf", size, budget, gotWRF, wantWRF)

			wantL1, err := refLoss(w, m, budget, false)
			if err != nil {
				t.Fatal(err)
			}
			gotL1, err := (&LOSS{Variant: 1}).Schedule(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "loss1", size, budget, gotL1, wantL1)

			// Deadline dual: sweep deadlines derived from the fastest and
			// least-cost makespans, mirroring the budget sweep.
			evFast, err := w.Evaluate(m, m.Fastest(w), nil)
			if err != nil {
				t.Fatal(err)
			}
			evLC, err := w.Evaluate(m, m.LeastCost(w), nil)
			if err != nil {
				t.Fatal(err)
			}
			deadline := evFast.Makespan + float64(k)/5*(evLC.Makespan-evFast.Makespan)
			wantDL, err := refDeadlineLoss(w, m, deadline)
			if err != nil {
				t.Fatal(err)
			}
			gotDL, err := DeadlineLoss(w, m, deadline)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "deadline-loss", size, deadline, gotDL.Schedule, wantDL.Schedule)
			if gotDL.MED != wantDL.MED || gotDL.Cost != wantDL.Cost {
				t.Fatalf("deadline-loss on %v: MED/Cost %.9g/%.9g, want %.9g/%.9g",
					size, gotDL.MED, gotDL.Cost, wantDL.MED, wantDL.Cost)
			}
		}
	}
}

// TestDifferentialSlowAlgorithms covers the quadratic and static variants
// (GAIN1/2, LOSS2/3, the Greedy ablation grid) on the smaller sizes where
// the reference implementations stay fast.
func TestDifferentialSlowAlgorithms(t *testing.T) {
	sizes := gen.PaperProblemSizes()[:6]
	for _, size := range sizes {
		w, m, cmin, cmax := diffInstance(t, size.M, size)
		for k := 1; k <= 5; k++ {
			budget := cmin + float64(k)/5*(cmax-cmin)

			type pair struct {
				name string
				ref  func() (workflow.Schedule, error)
				live func() (workflow.Schedule, error)
			}
			cases := []pair{
				{"gain1",
					func() (workflow.Schedule, error) { return refGainStatic(w, m, budget) },
					func() (workflow.Schedule, error) { return (&GAIN{Variant: 1}).Schedule(w, m, budget) }},
				{"gain2",
					func() (workflow.Schedule, error) { return refGainOncePerTask(w, m, budget, true) },
					func() (workflow.Schedule, error) { return (&GAIN{Variant: 2}).Schedule(w, m, budget) }},
				{"loss2",
					func() (workflow.Schedule, error) { return refLoss(w, m, budget, true) },
					func() (workflow.Schedule, error) { return (&LOSS{Variant: 2}).Schedule(w, m, budget) }},
				{"loss3",
					func() (workflow.Schedule, error) { return refLossStatic(w, m, budget) },
					func() (workflow.Schedule, error) { return (&LOSS{Variant: 3}).Schedule(w, m, budget) }},
				{"critical-ratio",
					func() (workflow.Schedule, error) { return refGreedy(CriticalOnly, MaxRatio, w, m, budget) },
					func() (workflow.Schedule, error) {
						g := &Greedy{Label: "critical-ratio", Candidates: CriticalOnly, Rank: MaxRatio}
						return g.Schedule(w, m, budget)
					}},
				{"all-timedec",
					func() (workflow.Schedule, error) { return refGreedy(AllModules, MaxTimeDecrease, w, m, budget) },
					func() (workflow.Schedule, error) {
						g := &Greedy{Label: "all-timedec", Candidates: AllModules, Rank: MaxTimeDecrease}
						return g.Schedule(w, m, budget)
					}},
				{"gain-fixpoint",
					func() (workflow.Schedule, error) { return refGreedy(AllModules, MaxRatio, w, m, budget) },
					func() (workflow.Schedule, error) {
						g := &Greedy{Label: "gain-fixpoint", Candidates: AllModules, Rank: MaxRatio}
						return g.Schedule(w, m, budget)
					}},
			}
			for _, c := range cases {
				want, err := c.ref()
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.live()
				if err != nil {
					t.Fatal(err)
				}
				requireSameSchedule(t, c.name, size, budget, got, want)
			}
		}
	}
}

// TestEngineRebind ensures a single scheduler instance can be reused across
// different (workflow, matrices) pairs without contaminating state.
func TestEngineRebind(t *testing.T) {
	sizes := []gen.ProblemSize{{M: 10, E: 17, N: 4}, {M: 25, E: 201, N: 5}, {M: 15, E: 65, N: 5}}
	g := CriticalGreedy()
	g3 := &GAIN{Variant: 3}
	for round := 0; round < 2; round++ {
		for _, size := range sizes {
			w, m, cmin, cmax := diffInstance(t, size.M, size)
			budget := cmin + 0.5*(cmax-cmin)
			want, err := refGreedy(CriticalOnly, MaxTimeDecrease, w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Schedule(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "rebound critical-greedy", size, budget, got, want)

			wantG, err := refGainOncePerTask(w, m, budget, false)
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := g3.Schedule(w, m, budget)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSchedule(t, "rebound gain3", size, budget, gotG, wantG)
		}
	}
}

// TestScheduleIntoMatchesSchedule pins the zero-alloc entry point to the
// plain one, including destination reuse across calls.
func TestScheduleIntoMatchesSchedule(t *testing.T) {
	size := gen.ProblemSize{M: 25, E: 201, N: 5}
	w, m, cmin, cmax := diffInstance(t, size.M, size)
	g := CriticalGreedy()
	dst := make(workflow.Schedule, w.NumModules())
	for k := 1; k <= 5; k++ {
		budget := cmin + float64(k)/5*(cmax-cmin)
		want, err := g.Schedule(w, m, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.ScheduleInto(dst, w, m, budget)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &dst[0] {
			t.Fatal("ScheduleInto did not reuse dst")
		}
		requireSameSchedule(t, "ScheduleInto", size, budget, got, want)
	}
}
