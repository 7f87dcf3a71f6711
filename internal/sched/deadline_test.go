package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

func TestDeadlineLossInfeasible(t *testing.T) {
	w, m := paperSetup(t)
	// Fastest makespan of the example is 4.6.
	if _, err := DeadlineLoss(w, m, 4.0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	if _, err := (&Optimal{}).Deadline(w, m, 4.0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("optimal err = %v", err)
	}
}

func TestDeadlineLossLooseDeadlineReachesLeastCost(t *testing.T) {
	w, m := paperSetup(t)
	// With a deadline beyond the least-cost makespan (17.33), every
	// downgrade is allowed and the greedy must land on Cmin = 48.
	res, err := DeadlineLoss(w, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 48 {
		t.Fatalf("cost = %v, want 48", res.Cost)
	}
}

func TestDeadlineLossTightDeadlineKeepsFastest(t *testing.T) {
	w, m := paperSetup(t)
	res, err := DeadlineLoss(w, m, 4.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.MED > 4.6+1e-9 {
		t.Fatalf("MED %v over deadline", res.MED)
	}
	// At the exact fastest makespan some downgrades may still be free
	// (off-critical modules); cost must not exceed Cmax = 64.
	if res.Cost > 64 {
		t.Fatalf("cost = %v", res.Cost)
	}
}

// TestDeadlineLossReportsItsEvaluation pins DeadlineLoss's MED and cost
// to the evaluation of the schedule it returns, in Float64bits, over
// gen.Instance instances of paper sizes 1–10 × hourly and exact billing
// × deadlines 10, 30, 50 and 80% of the way from the fastest to the
// least-cost makespan. Costs summed from the accepted downgrades'
// savings drift from m.Cost in the last bits.
func TestDeadlineLossReportsItsEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pairs := 0
	for _, size := range gen.PaperProblemSizes()[:10] {
		for k := 0; k < 13; k++ {
			w, cat, err := gen.Instance(rng, size)
			if err != nil {
				t.Fatal(err)
			}
			for _, billing := range []cloud.BillingPolicy{cloud.HourlyRoundUp, cloud.Exact{}} {
				m, err := w.BuildMatrices(cat, billing)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := w.Evaluate(m, m.Fastest(w), nil)
				if err != nil {
					t.Fatal(err)
				}
				lc, err := w.Evaluate(m, m.LeastCost(w), nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, frac := range []float64{0.1, 0.3, 0.5, 0.8} {
					d := fast.Makespan + frac*(lc.Makespan-fast.Makespan)
					res, err := DeadlineLoss(w, m, d)
					if err != nil {
						t.Fatalf("%v %v deadline %v: %v", size, billing, d, err)
					}
					ev, err := w.Evaluate(m, res.Schedule, nil)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(res.Cost) != math.Float64bits(ev.Cost) ||
						math.Float64bits(res.MED) != math.Float64bits(ev.Makespan) {
						t.Fatalf("%v %v deadline %v: MED/cost %v/%v, evaluation %v/%v",
							size, billing, d, res.MED, res.Cost, ev.Makespan, ev.Cost)
					}
					pairs++
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d pairs", pairs)
	}
}

func TestDeadlineRespectedOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 10, E: 17, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		fastEv, _ := wf.Evaluate(m, m.Fastest(wf), nil)
		lcEv, _ := wf.Evaluate(m, m.LeastCost(wf), nil)
		for _, frac := range []float64{1.0, 1.2, 1.5, 3.0} {
			d := fastEv.Makespan * frac
			res, err := DeadlineLoss(wf, m, d)
			if err != nil {
				t.Fatalf("trial %d frac %v: %v", trial, frac, err)
			}
			if res.MED > d+1e-9 {
				t.Fatalf("trial %d: MED %v over deadline %v", trial, res.MED, d)
			}
			if res.Cost < lcEv.Cost-1e-9 {
				t.Fatalf("trial %d: cost %v below Cmin %v — accounting bug", trial, res.Cost, lcEv.Cost)
			}
			if res.Cost > fastEv.Cost+1e-9 {
				t.Fatalf("trial %d: cost %v above fastest cost", trial, res.Cost)
			}
		}
	}
}

// dualLeaf is the cost and makespan of one type assignment.
type dualLeaf struct{ cost, med float64 }

// allLeaves enumerates every assignment of w's schedulable modules over
// the whole catalog, dominated types included, with one timing
// refreshed per leaf: the brute-force reference for the dual.
func allLeaves(t *testing.T, w *workflow.Workflow, m *workflow.Matrices) []dualLeaf {
	t.Helper()
	mods := w.Schedulable()
	s := m.LeastCost(w)
	times := m.Times(s)
	tm, err := dag.NewTiming(w.Graph(), times, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []dualLeaf
	var rec func(k int)
	rec = func(k int) {
		if k == len(mods) {
			times = m.TimesInto(s, times)
			if err := tm.Update(times); err != nil {
				t.Fatal(err)
			}
			out = append(out, dualLeaf{m.Cost(s), tm.Makespan})
			return
		}
		for j := range m.Catalog {
			s[mods[k]] = j
			rec(k + 1)
		}
	}
	rec(0)
	return out
}

// TestOptimalDeadlineMatchesBruteForce holds the exact dual to brute
// force on 600 instance-deadline pairs over the Table I catalog,
// generated catalogs, a catalog of dominated and tied types and one of
// equal-power types priced against their index order. The deadlines
// are the fastest makespan, two points inside the [fastest, least-cost]
// makespan range, an enumerated leaf's makespan and the least-cost
// makespan. A completed search must return the least cost and, to the
// bit, the least MED among the schedules of that cost, and its result
// must evaluate to the MED and cost it reports.
func TestOptimalDeadlineMatchesBruteForce(t *testing.T) {
	catalogs := []cloud.Catalog{nil, cloud.PaperExampleCatalog(), dominanceCatalog(), equalPowerCatalog()}
	rng := rand.New(rand.NewSource(72))
	o := &Optimal{}
	for trial := 0; trial < 120; trial++ {
		modules := 3 + trial%5
		cat := catalogs[trial%len(catalogs)]
		var (
			wf  *workflow.Workflow
			err error
		)
		if cat == nil {
			// A generated catalog of 3 or 4 types.
			wf, cat, err = gen.Instance(rng, gen.ProblemSize{M: modules, E: modules - 1 + trial%2, N: 3 + trial%2})
		} else {
			if len(cat) > 4 {
				modules = min(modules, 5) // keep n^m small
			}
			wf, err = gen.Random(rng, gen.Params{
				Modules: modules, Edges: modules - 1 + trial%2, WorkloadMin: 10, WorkloadMax: 100,
				DataSizeMax: 10, AddEntryExit: true,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		leaves := allLeaves(t, wf, m)
		fast, err := wf.Evaluate(m, m.Fastest(wf), nil)
		if err != nil {
			t.Fatal(err)
		}
		cheap, err := wf.Evaluate(m, m.LeastCost(wf), nil)
		if err != nil {
			t.Fatal(err)
		}
		span := cheap.Makespan - fast.Makespan
		for _, d := range []float64{
			fast.Makespan,
			fast.Makespan + float64(rng.Float64()*span),
			fast.Makespan + float64(rng.Float64()*span),
			math.Max(leaves[rng.Intn(len(leaves))].med, fast.Makespan),
			cheap.Makespan,
		} {
			bestCost, bestMED := math.Inf(1), math.Inf(1)
			for _, l := range leaves {
				if l.med <= d+dag.Eps && (l.cost < bestCost || l.cost <= bestCost && l.med < bestMED) {
					bestCost, bestMED = l.cost, l.med
				}
			}
			res, err := o.Deadline(wf, m, d)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := wf.Evaluate(m, res.Schedule, nil)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case res.Truncated:
				t.Fatalf("trial %d D=%v: search truncated", trial, d)
			case math.Abs(res.Cost-bestCost) > 1e-9:
				t.Fatalf("trial %d D=%v: cost %v, brute force %v", trial, d, res.Cost, bestCost)
			case math.Float64bits(res.MED) != math.Float64bits(bestMED):
				t.Fatalf("trial %d D=%v: MED %v, brute force's least at cost %v is %v", trial, d, res.MED, bestCost, bestMED)
			case math.Float64bits(ev.Makespan) != math.Float64bits(res.MED) ||
				math.Float64bits(ev.Cost) != math.Float64bits(res.Cost):
				t.Fatalf("trial %d D=%v: schedule evaluates to (%v, %v), result says (%v, %v)",
					trial, d, ev.Makespan, ev.Cost, res.MED, res.Cost)
			}
		}
	}
}

func TestDeadlineLossNeverBeatsOptimalDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 8; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 6, E: 11, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		fastEv, _ := wf.Evaluate(m, m.Fastest(wf), nil)
		d := fastEv.Makespan * 1.4
		heur, err := DeadlineLoss(wf, m, d)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := (&Optimal{}).Deadline(wf, m, d)
		if err != nil {
			t.Fatal(err)
		}
		if heur.Cost < opt.Cost-1e-9 {
			t.Fatalf("trial %d: heuristic cost %v below optimum %v", trial, heur.Cost, opt.Cost)
		}
	}
}

// TestBudgetDeadlineDuality traces both sides of the Pareto front on small
// instances: solving MED-CC optimally at budget B and then solving the
// dual optimally at the achieved makespan must not cost more than B.
func TestBudgetDeadlineDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 8; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 5, E: 6, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := cmin + rng.Float64()*(cmax-cmin)
		primal, err := Run(&Optimal{}, wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		dual, err := (&Optimal{}).Deadline(wf, m, primal.MED)
		if err != nil {
			t.Fatal(err)
		}
		if dual.Cost > b+1e-9 {
			t.Fatalf("trial %d: dual cost %v exceeds primal budget %v", trial, dual.Cost, b)
		}
		if dual.MED > primal.MED+1e-9 {
			t.Fatalf("trial %d: dual overshoots the deadline", trial)
		}
	}
}
