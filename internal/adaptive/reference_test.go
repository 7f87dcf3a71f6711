package adaptive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// TestRunMatchesFrozenReference pins Run to refRun, a frozen copy of the
// executor it replaced: a scan over every module for the next
// completion, and a re-planner with its own least-cost rule, timing and
// selection loop. Run re-plans with one Critical-Greedy engine and one
// Matrices, rebuilt in place, across all re-plans of a run; every
// outcome must match bit for bit, the re-plan count and the executed
// schedule included. The inputs are the paper's problem sizes 1-12 and
// tied or irregular shapes (fork-joins, Montage, CyberShake, layered),
// over the Table I, linear and diminishing catalogs with hourly and
// exact billing, at budgets from Cmin to Cmax, noise-free and noisy.
func TestRunMatchesFrozenReference(t *testing.T) {
	type instance struct {
		name string
		w    *workflow.Workflow
	}
	rng := rand.New(rand.NewSource(33))
	var insts []instance
	for k, size := range gen.PaperProblemSizes()[:12] {
		w, _, err := gen.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{fmt.Sprintf("size%d", k+1), w})
	}
	pw, _ := workflow.PaperExample()
	insts = append(insts,
		instance{"paper", pw},
		instance{"forkjoin-tied", gen.ForkJoin(rng, 6, 200, 200)},
		instance{"forkjoin", gen.ForkJoin(rng, 9, 100, 1000)},
		instance{"montage", gen.MontageLike(rng, 5)},
		instance{"cybershake", gen.CyberShakeLike(rng, 6)},
		instance{"layered-tied", gen.Layered(rng, 3, 4, 300, 300)},
		instance{"layered", gen.Layered(rng, 4, 3, 100, 1000)},
	)
	type catalog struct {
		name string
		cat  cloud.Catalog
	}
	cats := []catalog{
		{"tableI", cloud.PaperExampleCatalog()},
		{"linear", cloud.LinearCatalog(4, 3, 1)},
		{"diminishing", cloud.DiminishingCatalog(5, 3, 1, gen.SimulationGamma)},
	}
	billings := []cloud.BillingPolicy{cloud.HourlyRoundUp, cloud.Exact{}}
	noises := []struct {
		p    Perturb
		seed int64
	}{{nil, 0}, {Uniform(0.1, 0.6), 1}, {Uniform(0.1, 0.6), 2}, {Uniform(0.5, 0.2), 3}}
	runs, replans := 0, 0
	for _, in := range insts {
		for _, c := range cats {
			for _, bill := range billings {
				m, err := in.w.BuildMatrices(c.cat, bill)
				if err != nil {
					t.Fatal(err)
				}
				cmin, cmax := m.BudgetRange(in.w)
				for _, frac := range []float64{0, 0.3, 0.7, 1} {
					budget := cmin + float64(frac*(cmax-cmin))
					for _, nz := range noises {
						for _, replan := range []bool{false, true} {
							cfg := Config{
								Workflow: in.w, Catalog: c.cat, Billing: bill, Budget: budget,
								Perturb: nz.p, Seed: nz.seed, Replan: replan,
							}
							got, gerr := Run(cfg)
							want, werr := refRun(cfg)
							where := fmt.Sprintf("%s/%s/%v budget %v seed %d replan %v", in.name, c.name, bill, budget, nz.seed, replan)
							if gerr != nil || werr != nil {
								t.Fatalf("%s: errors %v / reference %v", where, gerr, werr)
							}
							if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) ||
								math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
								math.Float64bits(got.Overspend) != math.Float64bits(want.Overspend) ||
								got.Replans != want.Replans || !got.Final.Equal(want.Final) {
								t.Fatalf("%s:\n got %+v\nwant %+v", where, got, want)
							}
							runs++
							replans += got.Replans
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d re-plans that changed the schedule", runs, replans)
	if replans == 0 {
		t.Fatal("no re-plan changed a schedule: the pin compares nothing of the re-planner")
	}
}

// refRun is Run as it was before it moved onto sim.Queue and
// sched.CriticalGreedy, kept verbatim as the reference
// TestRunMatchesFrozenReference compares against.
func refRun(cfg Config) (*Outcome, error) {
	w := cfg.Workflow
	if w == nil {
		return nil, errors.New("adaptive: nil workflow")
	}
	m, err := w.BuildMatrices(cfg.Catalog, cfg.Billing)
	if err != nil {
		return nil, err
	}
	s, err := sched.CriticalGreedy().Schedule(w, m, cfg.Budget)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := w.Graph()
	n := w.NumModules()

	factor := make([]float64, n)
	for i := 0; i < n; i++ {
		factor[i] = 1
		if cfg.Perturb != nil && !w.Module(i).Fixed {
			est := m.TE[i][s[i]]
			f := cfg.Perturb(rng, i, est)
			if est > 0 {
				factor[i] = f / est
			}
		}
		if factor[i] < 0 {
			return nil, fmt.Errorf("adaptive: negative actual duration for module %d", i)
		}
	}
	actualDur := func(i int) float64 {
		if w.Module(i).Fixed {
			return w.Module(i).FixedTime
		}
		return m.TE[i][s[i]] * factor[i]
	}
	actualCost := func(i int) float64 {
		if w.Module(i).Fixed {
			return 0
		}
		return m.Billing.BilledTime(actualDur(i)) * m.Catalog[s[i]].Rate
	}

	const (
		unstarted = 0
		running   = 1
		finished  = 2
	)
	state := make([]int, n)
	finish := make([]float64, n)
	pending := make([]int, n)
	for i := 0; i < n; i++ {
		pending[i] = g.InDegree(i)
	}
	out := &Outcome{}
	now := 0.0
	spent := 0.0
	done := 0
	var rp refReplanner

	startReady := func() {
		for i := 0; i < n; i++ {
			if state[i] == unstarted && pending[i] == 0 {
				state[i] = running
				finish[i] = now + actualDur(i)
			}
		}
	}
	startReady()
	for done < n {
		next := -1
		for i := 0; i < n; i++ {
			if state[i] == running && (next == -1 || finish[i] < finish[next]) {
				next = i
			}
		}
		if next == -1 {
			return nil, fmt.Errorf("adaptive: deadlock with %d/%d modules done", done, n)
		}
		now = finish[next]
		state[next] = finished
		spent += actualCost(next)
		done++
		for _, v := range g.Succ(next) {
			pending[v]--
		}
		if cfg.Replan && done < n {
			if rp.replanOnce(w, m, s, state, cfg.Budget, spent) {
				out.Replans++
			}
		}
		startReady()
	}
	out.Makespan = now
	out.Cost = spent
	if spent > cfg.Budget {
		out.Overspend = spent - cfg.Budget
	}
	out.Final = s
	return out, nil
}

// refReplanner is the re-planner refRun used: the Critical-Greedy loop
// over the unstarted modules with its own least-cost rule, timing and
// selection scan.
type refReplanner struct {
	unstarted []int
	before    workflow.Schedule
	times     []float64
	t         *dag.Timing
}

func (rp *refReplanner) replanOnce(w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule, state []int, budget, spent float64) bool {
	g := w.Graph()
	unstartedMods := rp.unstarted[:0]
	committed := 0.0
	for i := 0; i < w.NumModules(); i++ {
		if w.Module(i).Fixed {
			continue
		}
		switch state[i] {
		case 0:
			unstartedMods = append(unstartedMods, i)
		case 1:
			committed += m.CE[i][s[i]]
		}
	}
	rp.unstarted = unstartedMods
	if len(unstartedMods) == 0 {
		return false
	}
	sort.Ints(unstartedMods)
	if len(rp.before) != len(s) {
		rp.before = make(workflow.Schedule, len(s))
	}
	copy(rp.before, s)

	remaining := 0.0
	for _, i := range unstartedMods {
		best := 0
		for j := 1; j < len(m.Catalog); j++ {
			cj, cb := m.CE[i][j], m.CE[i][best]
			// medcc:lint-ignore floateq — tie-break on identical table cells; both sides read straight from CE.
			if cj < cb || (cj == cb && m.TE[i][j] < m.TE[i][best]) {
				best = j
			}
		}
		s[i] = best
		remaining += m.CE[i][best]
	}
	avail := budget - spent - committed
	fresh := true
	for avail-remaining > 0 {
		if fresh {
			rp.times = m.TimesInto(s, rp.times)
			if rp.t == nil {
				t, err := dag.NewTiming(g, rp.times, nil)
				if err != nil {
					break
				}
				rp.t = t
			} else if err := rp.t.Update(rp.times); err != nil {
				break
			}
			fresh = false
		}
		t := rp.t
		bi, bj := -1, -1
		var bestDT, bestDC float64
		for _, i := range unstartedMods {
			if !t.IsCritical(i) {
				continue
			}
			for _, j := range m.Options(i) {
				if j == s[i] {
					continue
				}
				dt := m.TE[i][s[i]] - m.TE[i][j]
				dc := m.CE[i][j] - m.CE[i][s[i]]
				if dt <= dag.Eps || dc > avail-remaining+1e-9 {
					continue
				}
				if bi == -1 || dt > bestDT+dag.Eps ||
					(dt >= bestDT-dag.Eps && dc < bestDC-1e-9) {
					bi, bj, bestDT, bestDC = i, j, dt, dc
				}
			}
		}
		if bi == -1 {
			break
		}
		s[bi] = bj
		remaining += bestDC
		t.UpdateNode(bi, m.TE[bi][bj])
	}
	return !s.Equal(rp.before)
}
