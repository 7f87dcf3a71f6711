package exper

import (
	"fmt"
	"runtime"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// campaignScratch is the per-worker state of the parallel campaign loops:
// a pooled instance generator, matrices rebuilt in place, the worker's
// sched.Runner (one reusable scheduler per algorithm name and a MED
// timing refreshed instead of rebuilt for every schedule of the current
// instance), and destination schedule buffers. One scratch serves one
// parallelForWorkers worker, so no locking is needed; allocations fall to
// near zero once a worker has warmed up on the largest problem size it
// will see.
//
// Determinism is untouched: instances are still seeded per item, and the
// pooled generator and runner are bit-identical to their one-shot forms
// (pinned by the gen and sched differential tests), so campaign numbers do
// not depend on which worker processed which item.
//
// medcc:scratch
type campaignScratch struct {
	b gen.Builder
	// medcc:lint-ignore epochguard — owner: w and m are rebuilt in place for every instance; the only state derived from them across rebuilds is run's, which keys its MED timing on the graph and its version.
	w *workflow.Workflow
	// medcc:lint-ignore epochguard — rebuilt with w, as above.
	m        *workflow.Matrices
	lc, fast workflow.Schedule

	run   sched.Runner
	dst   workflow.Schedule
	swDst []workflow.Schedule

	budgets []float64

	// Corpus scratch: a per-worker binary decoder (its intern table warms
	// up on the module/VM names of the stream) and the pooled workflow
	// that corpus records decode into. cwf is distinct from the pooled
	// generator's workflow — the builder owns that one, and clobbering it
	// would corrupt the next generated instance.
	dec encoding.Decoder
	// medcc:lint-ignore epochguard — owner: records decode into cwf in place, as the generator rebuilds w.
	cwf *workflow.Workflow

	// replayer is the pooled discrete-event engine of the A2 validation.
	replayer sim.Replayer

	// smallCat is the paper's fixed Table I catalog of the optimality
	// studies.
	smallCat cloud.Catalog
}

// newScratchPool returns one campaignScratch per fan-out worker for a loop
// of n items (parallelForWorkers never uses more worker indices than
// min(GOMAXPROCS, n), and at least index 0).
func newScratchPool(n int) []campaignScratch {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return make([]campaignScratch, workers)
}

// instance regenerates instance k of a problem size into the pooled
// workflow and matrices and returns the budget range [Cmin, Cmax]. The
// previous instance held by this scratch is overwritten.
func (cs *campaignScratch) instance(seed int64, k int, size gen.ProblemSize) (cmin, cmax float64, err error) {
	rng := newRNG(seed, k)
	w, cat, err := cs.b.Instance(rng, size)
	if err != nil {
		return 0, 0, err
	}
	cs.w = w
	cs.m, err = w.BuildMatricesInto(cat, cloud.HourlyRoundUp, cs.m)
	if err != nil {
		return 0, 0, err
	}
	cs.lc = cs.m.LeastCostInto(w, cs.lc)
	cs.fast = cs.m.FastestInto(w, cs.fast)
	return cs.m.Cost(cs.lc), cs.m.Cost(cs.fast), nil
}

// smallInstance is instance for the small-scale optimality studies
// (Table III, Fig. 7), which use exactly three VM types: workloads in the
// range of the §V-B example and the paper's own Table I catalog
// (VP = {3,15,30}, CV = {1,4,8}), drawn from the per-item RNG stream and
// regenerated into the pooled workflow and matrices.
func (cs *campaignScratch) smallInstance(seed int64, k int, size gen.ProblemSize) (cmin, cmax float64, err error) {
	rng := newRNG(seed, k)
	w, err := cs.b.Random(rng, gen.Params{
		Modules:      size.M,
		Edges:        size.E,
		WorkloadMin:  10,
		WorkloadMax:  100,
		DataSizeMax:  10,
		AddEntryExit: true,
	})
	if err != nil {
		return 0, 0, err
	}
	cs.w = w
	if cs.smallCat == nil {
		cs.smallCat = cloud.PaperExampleCatalog()
	}
	cs.m, err = w.BuildMatricesInto(cs.smallCat, cloud.HourlyRoundUp, cs.m)
	if err != nil {
		return 0, 0, err
	}
	cs.lc = cs.m.LeastCostInto(w, cs.lc)
	cs.fast = cs.m.FastestInto(w, cs.fast)
	return cs.m.Cost(cs.lc), cs.m.Cost(cs.fast), nil
}

// optimalMED solves the current instance exactly through the runner and
// returns the optimal MED. It errors if the search hit its node limit: a
// truncated incumbent is not a proven optimum, and silently comparing
// heuristics against it would corrupt the optimality studies.
func (cs *campaignScratch) optimalMED(budget float64) (float64, error) {
	s, truncated, err := cs.run.Solve("optimal", cs.dst, cs.w, cs.m, budget, nil)
	if err != nil {
		return 0, fmt.Errorf("optimal: %w", err)
	}
	cs.dst = s
	if truncated {
		opt, _ := cs.run.Scheduler("optimal")
		return 0, fmt.Errorf("optimal: node limit reached after %d nodes (m=%d): incumbent not proven optimal",
			opt.(*sched.Optimal).Expanded, cs.w.NumModules())
	}
	return cs.run.MED(cs.w, cs.m, s)
}

// sched runs the named algorithm at the budget on the current instance and
// returns the resulting schedule (owned by the scratch, valid until the
// next sched call).
func (cs *campaignScratch) sched(name string, budget float64) (workflow.Schedule, error) {
	s, _, err := cs.run.Solve(name, cs.dst, cs.w, cs.m, budget, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cs.dst = s
	return s, nil
}

// med runs the named algorithm and returns the makespan of its schedule.
func (cs *campaignScratch) med(name string, budget float64) (float64, error) {
	s, err := cs.sched(name, budget)
	if err != nil {
		return 0, err
	}
	return cs.run.MED(cs.w, cs.m, s)
}

// budgetGrid fills the scratch budget buffer with the paper's ascending
// budget levels over [cmin, cmax]: level k of n is the fraction k/n of the
// range, for k in 1..n.
func (cs *campaignScratch) budgetGrid(cmin, cmax float64, levels int) []float64 {
	cs.budgets = cs.budgets[:0]
	for k := 1; k <= levels; k++ {
		cs.budgets = append(cs.budgets, sched.BudgetAt(cmin, cmax, float64(k)/float64(levels)))
	}
	return cs.budgets
}

// sweep runs the named algorithm across an ascending budget grid on the
// current instance (sched.SweepSchedules: level k is the algorithm's
// ScheduleInto at budgets[k]). The returned schedules are owned by the
// scratch, valid until the next sweep call.
func (cs *campaignScratch) sweep(name string, budgets []float64) ([]workflow.Schedule, error) {
	alg, err := cs.run.Scheduler(name)
	if err != nil {
		return nil, err
	}
	rows, err := sched.SweepSchedules(alg, cs.swDst, cs.w, cs.m, budgets)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cs.swDst = rows
	return rows, nil
}

// meds sweeps the named algorithm over the budget grid and appends the
// per-level makespans to dst.
func (cs *campaignScratch) meds(name string, budgets []float64, dst []float64) ([]float64, error) {
	rows, err := cs.sweep(name, budgets)
	if err != nil {
		return nil, err
	}
	for _, s := range rows {
		mk, err := cs.run.MED(cs.w, cs.m, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		dst = append(dst, mk)
	}
	return dst, nil
}
