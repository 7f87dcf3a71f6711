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

// bruteForce enumerates every assignment without pruning — the reference
// oracle for Optimal.
func bruteForce(t *testing.T, w *workflow.Workflow, m *workflow.Matrices, budget float64) (float64, float64) {
	t.Helper()
	mods := w.Schedulable()
	n := len(m.Catalog)
	s := m.LeastCost(w)
	bestMED, bestCost := math.Inf(1), math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(mods) {
			cost := m.Cost(s)
			if cost > budget+1e-9 {
				return
			}
			tm, err := dag.NewTiming(w.Graph(), m.Times(s), nil)
			if err != nil {
				t.Fatal(err)
			}
			if tm.Makespan < bestMED-1e-9 ||
				(tm.Makespan <= bestMED+1e-9 && cost < bestCost-1e-9) {
				bestMED, bestCost = tm.Makespan, cost
			}
			return
		}
		for j := 0; j < n; j++ {
			s[mods[k]] = j
			rec(k + 1)
		}
	}
	rec(0)
	return bestMED, bestCost
}

func TestOptimalInfeasible(t *testing.T) {
	w, m := paperSetup(t)
	if _, err := (&Optimal{}).Schedule(w, m, 10); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestOptimalMatchesBruteForceOnPaperExample(t *testing.T) {
	w, m := paperSetup(t)
	for _, b := range []float64{48, 50, 53, 57, 61, 64} {
		res, err := Run(&Optimal{}, w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		wantMED, wantCost := bruteForce(t, w, m, b)
		if math.Abs(res.MED-wantMED) > 1e-9 {
			t.Fatalf("B=%v: optimal MED %v, brute force %v", b, res.MED, wantMED)
		}
		if math.Abs(res.Cost-wantCost) > 1e-9 {
			t.Fatalf("B=%v: optimal cost %v, brute force %v", b, res.Cost, wantCost)
		}
	}
}

func TestOptimalMatchesBruteForceOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 12; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 5, E: 6, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := cmin + rng.Float64()*(cmax-cmin)
		res, err := Run(&Optimal{}, wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		wantMED, _ := bruteForce(t, wf, m, b)
		if math.Abs(res.MED-wantMED) > 1e-9 {
			t.Fatalf("trial %d B=%v: optimal %v != brute force %v", trial, b, res.MED, wantMED)
		}
	}
}

func TestOptimalNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	algs := []string{"critical-greedy", "gain1", "gain2", "gain3", "gain-fixpoint", "loss1", "loss2"}
	for trial := 0; trial < 8; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 6, E: 11, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := (cmin + cmax) / 2
		opt, err := Run(&Optimal{}, wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range algs {
			sc, _ := Get(name)
			res, err := Run(sc, wf, m, b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if opt.MED > res.MED+1e-9 {
				t.Fatalf("trial %d: optimal MED %v worse than %s %v", trial, opt.MED, name, res.MED)
			}
		}
	}
}

// TestOptimalTieBreaksTowardLowerCost pins the cost clause of the leaf
// rule: at equal MED the optimum is the cheaper schedule. The two-type
// case is the claim in its plainest form, but dominance pruning drops the
// pricier twin before the search runs, so the random instances on the
// paper's Table I catalog carry the pin: wherever several schedules reach
// the optimal MED, the solver's cost must be brute force's cheapest.
func TestOptimalTieBreaksTowardLowerCost(t *testing.T) {
	// Two types, identical times, different costs: the optimum must
	// pick the cheap one even with budget to spare.
	cat := cloud.Catalog{
		{Name: "cheap", Power: 5, Rate: 1},
		{Name: "pricey", Power: 5, Rate: 7},
	}
	w := workflow.New()
	w.AddModule(workflow.Module{Name: "m", Workload: 10})
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Optimal{}, w, m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule[0] != 0 {
		t.Fatalf("optimal chose pricey type at equal makespan: %v", res.Schedule)
	}

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		wf, err := gen.Random(rng, gen.Params{
			Modules: 4 + trial%3, Edges: 3 + trial%3 + trial%4, WorkloadMin: 10, WorkloadMax: 100,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := wf.BuildMatrices(cloud.PaperExampleCatalog(), cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(wf)
		for lv := 0; lv < 4; lv++ {
			b := BudgetAt(cmin, cmax, rng.Float64())
			res, err := Run(&Optimal{}, wf, m, b)
			if err != nil {
				t.Fatal(err)
			}
			wantMED, wantCost := bruteForce(t, wf, m, b)
			if math.Abs(res.MED-wantMED) > 1e-9 || math.Abs(res.Cost-wantCost) > 1e-9 {
				t.Fatalf("trial %d B=%v: optimal (MED, cost) = (%v, %v), brute force (%v, %v)",
					trial, b, res.MED, res.Cost, wantMED, wantCost)
			}
		}
	}
}

func TestOptimalMaxNodesGuardStillFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 8, E: 18, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
	cmin, cmax := m.BudgetRange(wf)
	b := (cmin + cmax) / 2
	res, err := Run(&Optimal{MaxNodes: 10}, wf, m, b)
	if err != nil {
		t.Fatal(err)
	}
	// With a starved node budget the search returns the incumbent
	// (Critical-Greedy seed) schedule, which is still budget-feasible.
	if res.Cost > b+1e-9 {
		t.Fatalf("guarded optimal overspent: %v > %v", res.Cost, b)
	}
	if !res.Truncated {
		t.Fatal("starved search did not report truncation")
	}
}

// TestOptimalPooledResolveIsStable re-solves the same instance with the
// same pooled solver: the steady-state scratch path (bound tables,
// timing, partial schedule all reused) must reproduce the cold result
// exactly.
func TestOptimalPooledResolveIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 8, E: 18, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(wf)
	b := (cmin + cmax) / 2
	o := &Optimal{}
	first, err := o.Schedule(wf, m, b)
	if err != nil {
		t.Fatal(err)
	}
	cold := append(workflow.Schedule(nil), first...)
	for rep := 0; rep < 3; rep++ {
		again, err := o.Schedule(wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if again[i] != cold[i] {
				t.Fatalf("repeat %d: schedule[%d] = %d, first solve %d", rep, i, again[i], cold[i])
			}
		}
	}
}

// TestOptimalTruncationReporting pins the Truncated/Expanded contract: a
// starved node budget must set the flag (and propagate it through
// sched.Run), a defaulted one must clear it and report the node count.
// Deadline's Result.Truncated and the solver's own flag follow the
// same rule.
func TestOptimalTruncationReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 8, E: 18, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(wf)
	b := (cmin + cmax) / 2

	starved := &Optimal{MaxNodes: 10}
	res, err := Run(starved, wf, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !starved.WasTruncated() {
		t.Fatalf("MaxNodes=10: Truncated = %v, WasTruncated = %v, want true, true",
			res.Truncated, starved.WasTruncated())
	}

	full := &Optimal{}
	res, err = Run(full, wf, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || full.WasTruncated() {
		t.Fatal("default node limit reported truncation on an m=8 instance")
	}
	if full.Expanded <= 0 {
		t.Fatalf("Expanded = %d after a completed solve", full.Expanded)
	}

	// The deadline dual's exact search reports its node limit the same
	// way.
	fast, err := wf.Evaluate(m, m.Fastest(wf), nil)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := wf.Evaluate(m, m.LeastCost(wf), nil)
	if err != nil {
		t.Fatal(err)
	}
	d := (fast.Makespan + cheap.Makespan) / 2
	for _, tc := range []struct {
		maxNodes int64
		want     bool
	}{{10, true}, {0, false}} {
		o := &Optimal{MaxNodes: tc.maxNodes}
		res, err := o.Deadline(wf, m, d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated != tc.want || o.Truncated != tc.want || o.Expanded <= 0 {
			t.Fatalf("Deadline MaxNodes=%d: Truncated = %v (solver %v) after %d nodes, want %v",
				tc.maxNodes, res.Truncated, o.Truncated, o.Expanded, tc.want)
		}
	}
}

// TestOptimalTruncationIsReproducible pins the node limit: a search cut
// short stops with exactly MaxNodes expanded, so what it returns depends
// only on the instance, the budget (or deadline) and MaxNodes. For the
// budget problem a fresh solver, one reused across budgets and
// instances, and a Runner must return the same schedule,
// Float64bits-equal MED and cost, and the truncated flag. The deadline
// dual runs at the same limits on the reused solver, alternating with
// its budget solves, and must equal a fresh solver's Deadline.
func TestOptimalTruncationIsReproducible(t *testing.T) {
	type instance struct {
		w               *workflow.Workflow
		m               *workflow.Matrices
		cmin, cmax      float64
		fastMk, cheapMk float64
	}
	var insts []instance
	rng := rand.New(rand.NewSource(25))
	for _, size := range []gen.ProblemSize{{M: 20, E: 80, N: 5}, {M: 25, E: 201, N: 5}} {
		for trial := 0; trial < 2; trial++ {
			w, cat, err := gen.Instance(rng, size)
			if err != nil {
				t.Fatal(err)
			}
			m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
			if err != nil {
				t.Fatal(err)
			}
			cmin, cmax := m.BudgetRange(w)
			fast, err := w.Evaluate(m, m.Fastest(w), nil)
			if err != nil {
				t.Fatal(err)
			}
			cheap, err := w.Evaluate(m, m.LeastCost(w), nil)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, instance{w, m, cmin, cmax, fast.Makespan, cheap.Makespan})
		}
	}
	for _, maxNodes := range []int64{10, 1_000, 5_000} {
		reused := &Optimal{MaxNodes: maxNodes}
		var r Runner
		alg, err := r.Scheduler("optimal")
		if err != nil {
			t.Fatal(err)
		}
		pooled := alg.(*Optimal)
		pooled.MaxNodes = maxNodes
		var dst, rdst workflow.Schedule
		for k, in := range insts {
			for _, frac := range []float64{0.5, 0.75} {
				b := BudgetAt(in.cmin, in.cmax, frac)
				label := fmt.Sprintf("MaxNodes %d instance %d budget %v", maxNodes, k, b)
				fresh := &Optimal{MaxNodes: maxNodes}
				want, err := Run(fresh, in.w, in.m, b)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Truncated || fresh.Expanded != maxNodes {
					t.Fatalf("%s: fresh solve Truncated %v after %d nodes, want true after %d",
						label, want.Truncated, fresh.Expanded, maxNodes)
				}
				same := func(who string, s workflow.Schedule, trunc bool, expanded int64) {
					t.Helper()
					ev, err := in.w.Evaluate(in.m, s, nil)
					if err != nil {
						t.Fatalf("%s: %s: %v", label, who, err)
					}
					if !s.Equal(want.Schedule) || !trunc || expanded != maxNodes ||
						math.Float64bits(ev.Makespan) != math.Float64bits(want.MED) ||
						math.Float64bits(ev.Cost) != math.Float64bits(want.Cost) {
						t.Fatalf("%s: %s got %v MED %v cost %v truncated %v after %d nodes, fresh %v MED %v cost %v",
							label, who, s, ev.Makespan, ev.Cost, trunc, expanded, want.Schedule, want.MED, want.Cost)
					}
				}
				if dst, err = reused.ScheduleInto(dst, in.w, in.m, b); err != nil {
					t.Fatal(err)
				}
				same("reused", dst, reused.Truncated, reused.Expanded)
				s, trunc, err := r.Solve("optimal", rdst, in.w, in.m, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				rdst = s
				same("runner", s, trunc, pooled.Expanded)

				d := in.fastMk + float64((1-frac)*(in.cheapMk-in.fastMk))
				fresh = &Optimal{MaxNodes: maxNodes}
				wantD, err := fresh.Deadline(in.w, in.m, d)
				if err != nil {
					t.Fatal(err)
				}
				got, err := reused.Deadline(in.w, in.m, d)
				if err != nil {
					t.Fatal(err)
				}
				if !wantD.Truncated || fresh.Expanded != maxNodes || !got.Truncated || reused.Expanded != maxNodes ||
					!got.Schedule.Equal(wantD.Schedule) ||
					math.Float64bits(got.MED) != math.Float64bits(wantD.MED) ||
					math.Float64bits(got.Cost) != math.Float64bits(wantD.Cost) {
					t.Fatalf("%s deadline %v: reused %+v after %d nodes, fresh %+v after %d, want both truncated after %d",
						label, d, got, reused.Expanded, wantD, fresh.Expanded, maxNodes)
				}
			}
		}
	}
}

// TestOptimalDominancePruningKeepsOptimum feeds the solver a catalog full
// of dominated and exactly-tied types — strictly worse (slower and at
// least as expensive), strictly redundant (identical power and rate), and
// merely overpriced — and checks against the unpruned brute-force oracle
// that dropping them never drops the optimum.
func TestOptimalDominancePruningKeepsOptimum(t *testing.T) {
	cat := dominanceCatalog()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		wf, err := gen.Random(rng, gen.Params{
			Modules: 5, Edges: 6, WorkloadMin: 10, WorkloadMax: 100,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(wf)
		for lv := 1; lv <= 3; lv++ {
			b := cmin + float64(lv)/4*(cmax-cmin)
			res, err := Run(&Optimal{}, wf, m, b)
			if err != nil {
				t.Fatal(err)
			}
			wantMED, wantCost := bruteForce(t, wf, m, b)
			if math.Abs(res.MED-wantMED) > 1e-9 {
				t.Fatalf("trial %d B=%v: optimal MED %v, brute force %v", trial, b, res.MED, wantMED)
			}
			if math.Abs(res.Cost-wantCost) > 1e-9 {
				t.Fatalf("trial %d B=%v: optimal cost %v, brute force %v", trial, b, res.Cost, wantCost)
			}
		}
	}
}

// TestOptimalProvesM10UnderDefaultLimit pins the acceptance bar for the
// extended optimality studies: m=10 instances must solve to proven
// optimality (no truncation) under the default node limit, with plenty of
// headroom.
func TestOptimalProvesM10UnderDefaultLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 10, E: 22, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(wf)
		for lv := 1; lv <= 3; lv++ {
			o := &Optimal{}
			if _, err := Run(o, wf, m, cmin+float64(lv)/4*(cmax-cmin)); err != nil {
				t.Fatal(err)
			}
			if o.Truncated {
				t.Fatalf("trial %d level %d: m=10 solve truncated at default node limit", trial, lv)
			}
			if o.Expanded >= defaultMaxNodes/100 {
				t.Fatalf("trial %d level %d: %d nodes leaves too little headroom", trial, lv, o.Expanded)
			}
		}
	}
}

// dominanceCatalog is full of dominated and exactly-tied types.
func dominanceCatalog() cloud.Catalog {
	return cloud.Catalog{
		{Name: "slow", Power: 3, Rate: 1},
		{Name: "slow-overpriced", Power: 3, Rate: 5}, // dominated by slow
		{Name: "mid", Power: 15, Rate: 4},
		{Name: "mid-twin", Power: 15, Rate: 4}, // exact tie with mid
		{Name: "fast", Power: 30, Rate: 8},
		{Name: "slowest-priciest", Power: 2, Rate: 9}, // dominated by all
	}
}

// equalPowerCatalog has two types of equal power where the lower index
// costs more: the one shape whose option table keeps a row of equal
// time that is not on the Pareto frontier.
func equalPowerCatalog() cloud.Catalog {
	return cloud.Catalog{
		{Name: "slow", Power: 3, Rate: 1},
		{Name: "mid-pricey", Power: 15, Rate: 6},
		{Name: "mid", Power: 15, Rate: 4},
		{Name: "fast", Power: 30, Rate: 20},
	}
}

// sortedSweepTables builds Optimal's per-position option tables the way
// it did before it read the option table: every type of each module
// insertion-sorted by (TE, CE, index), then swept down to the Pareto
// frontier, where a type survives iff its CE is strictly below every
// faster type's.
func sortedSweepTables(mods []int, m *workflow.Matrices) (idx []int, te, ce []float64, off []int, suffixMin []float64) {
	for _, i := range mods {
		off = append(off, len(idx))
		rowTE, rowCE := m.TE[i], m.CE[i]
		var order []int
		for j := range rowTE {
			p := len(order)
			order = append(order, j)
			for p > 0 {
				q := order[p-1]
				if rowTE[q] < rowTE[j] || (rowTE[q] <= rowTE[j] && rowCE[q] <= rowCE[j]) {
					break
				}
				order[p] = q
				p--
			}
			order[p] = j
		}
		bestCE := math.Inf(1)
		for _, j := range order {
			if rowCE[j] < bestCE {
				idx, te, ce = append(idx, j), append(te, rowTE[j]), append(ce, rowCE[j])
				bestCE = rowCE[j]
			}
		}
	}
	off = append(off, len(idx))
	suffixMin = make([]float64, len(mods)+1)
	for k := len(mods) - 1; k >= 0; k-- {
		suffixMin[k] = suffixMin[k+1] + ce[off[k+1]-1]
	}
	return idx, te, ce, off, suffixMin
}

// TestOptimalTablesMatchSortedSweep pins Optimal's option tables, read
// from the matrices' option table, to a sort and sweep of every type on
// 480 instances: the Table I catalog, the dominance catalog of
// TestOptimalDominancePruningKeepsOptimum, the equal-power catalog and
// the generated instances of paper sizes 1-4. One solver rebuilds its
// tables across all of them.
func TestOptimalTablesMatchSortedSweep(t *testing.T) {
	catalogs := []cloud.Catalog{cloud.PaperExampleCatalog(), dominanceCatalog(), equalPowerCatalog()}
	sizes := gen.PaperProblemSizes()[:4]
	rng := rand.New(rand.NewSource(31))
	var o Optimal
	floatsEqual := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for trial := 0; trial < 480; trial++ {
		var (
			w   *workflow.Workflow
			cat cloud.Catalog
			err error
		)
		if k := trial % 8; k < len(catalogs) {
			cat = catalogs[k]
			w, err = gen.Random(rng, gen.Params{
				Modules: 3 + trial%9, Edges: 2 + trial%9, WorkloadMin: 10, WorkloadMax: 100,
				DataSizeMax: 10, AddEntryExit: true,
			})
		} else {
			w, cat, err = gen.Instance(rng, sizes[trial%len(sizes)])
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		o.eng.bind(w, m)
		o.buildBounds()
		idx, te, ce, off, suffixMin := sortedSweepTables(o.eng.mods, m)
		if !slices.Equal(o.optIdx, idx) || !slices.Equal(o.optOff, off) || !floatsEqual(o.optTE, te) ||
			!floatsEqual(o.optCE, ce) || !floatsEqual(o.suffixMin, suffixMin) {
			t.Fatalf("trial %d: tables (types %v, offsets %v, TE %v, CE %v, suffixMin %v), sort and sweep (%v, %v, %v, %v, %v)",
				trial, o.optIdx, o.optOff, o.optTE, o.optCE, o.suffixMin, idx, off, te, ce, suffixMin)
		}
	}
}
