package exper

import (
	"fmt"
	"runtime"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// campaignScratch is the per-worker state of the parallel campaign loops:
// a pooled instance generator, matrices rebuilt in place, one reusable
// scheduler per algorithm name, destination schedule buffers, and a DAG
// timing that is refreshed instead of rebuilt for every schedule of the
// current instance. One scratch serves one parallelForWorkers worker, so
// no locking is needed; allocations fall to near zero once a worker has
// warmed up on the largest problem size it will see.
//
// Determinism is untouched: instances are still seeded per item, and the
// pooled generator/schedulers are bit-identical to their one-shot forms
// (pinned by the gen and sched differential tests), so campaign numbers do
// not depend on which worker processed which item.
//
// medcc:scratch
type campaignScratch struct {
	b gen.Builder
	w *workflow.Workflow
	// medcc:lint-ignore epochguard — w and m are rebuilt in place for every instance; the only derived state cached across rebuilds is t, guarded by tver below.
	m        *workflow.Matrices
	lc, fast workflow.Schedule

	algs  map[string]sched.IntoScheduler
	dst   map[string]workflow.Schedule
	swDst map[string][]workflow.Schedule

	budgets []float64

	// t is the pooled timing, keyed on the graph it was built over and
	// that graph's version: t aliases the graph's cache arrays, which an
	// in-place rebuild overwrites, and the generator's and the corpus
	// decoder's graphs keep independent version counters.
	times []float64
	t     *dag.Timing
	tg    *dag.Graph
	tver  uint64

	// Corpus scratch: a per-worker binary decoder (its intern table warms
	// up on the module/VM names of the stream) and the pooled workflow
	// that corpus records decode into. cwf is distinct from the pooled
	// generator's workflow — the builder owns that one, and clobbering it
	// would corrupt the next generated instance.
	dec encoding.Decoder
	cwf *workflow.Workflow

	// replayer is the pooled discrete-event engine of the A2 validation.
	replayer sim.Replayer

	// Optimality-study scratch: the paper's fixed Table I catalog and a
	// pooled exact solver. The solver keeps Workers at 1 because the
	// campaign loop already owns one scratch (and one core) per worker;
	// the branch-and-bound result is identical at any worker count.
	smallCat cloud.Catalog
	opt      *sched.Optimal
	optDst   workflow.Schedule
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

// optimalMED solves the current instance exactly with the pooled
// branch-and-bound solver and returns the optimal MED. It errors if the
// solver hit its node limit: a truncated incumbent is not a proven
// optimum, and silently comparing heuristics against it would corrupt the
// optimality studies.
func (cs *campaignScratch) optimalMED(budget float64) (float64, error) {
	if cs.opt == nil {
		cs.opt = &sched.Optimal{Workers: 1}
	}
	s, err := cs.opt.ScheduleInto(cs.optDst, cs.w, cs.m, budget)
	if err != nil {
		return 0, fmt.Errorf("optimal: %w", err)
	}
	cs.optDst = s
	if cs.opt.Truncated {
		return 0, fmt.Errorf("optimal: node limit reached after %d nodes (m=%d): incumbent not proven optimal",
			cs.opt.Expanded, cs.w.NumModules())
	}
	return cs.makespan(s)
}

// alg returns the pooled scheduler instance for the named algorithm,
// creating it on first use.
func (cs *campaignScratch) alg(name string) (sched.IntoScheduler, error) {
	if cs.algs == nil {
		cs.algs = map[string]sched.IntoScheduler{}
		cs.dst = map[string]workflow.Schedule{}
		cs.swDst = map[string][]workflow.Schedule{}
	}
	alg, ok := cs.algs[name]
	if !ok {
		s, err := sched.Get(name)
		if err != nil {
			return nil, err
		}
		into, isInto := s.(sched.IntoScheduler)
		if !isInto {
			return nil, fmt.Errorf("exper: %s does not support pooled scheduling", name)
		}
		cs.algs[name] = into
		alg = into
	}
	return alg, nil
}

// sched runs the named algorithm at the budget on the current instance and
// returns the resulting schedule (owned by the scratch, valid until the
// next sched call for the same name).
func (cs *campaignScratch) sched(name string, budget float64) (workflow.Schedule, error) {
	alg, err := cs.alg(name)
	if err != nil {
		return nil, err
	}
	s, err := alg.ScheduleInto(cs.dst[name], cs.w, cs.m, budget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cs.dst[name] = s
	return s, nil
}

// med runs the named algorithm and returns the makespan of its schedule.
func (cs *campaignScratch) med(name string, budget float64) (float64, error) {
	s, err := cs.sched(name, budget)
	if err != nil {
		return 0, err
	}
	return cs.makespan(s)
}

// budgetGrid fills the scratch budget buffer with the campaign's ascending
// budget levels over [cmin, cmax].
func (cs *campaignScratch) budgetGrid(cmin, cmax float64, levels int) []float64 {
	cs.budgets = cs.budgets[:0]
	for k := 1; k <= levels; k++ {
		cs.budgets = append(cs.budgets, budgetLevel(cmin, cmax, k, levels))
	}
	return cs.budgets
}

// sweep runs the named algorithm across an ascending budget grid on the
// current instance (sched.SweepSchedules: level k is the algorithm's
// ScheduleInto at budgets[k]). The returned schedules are owned by the
// scratch, valid until the next sweep call for the same name.
func (cs *campaignScratch) sweep(name string, budgets []float64) ([]workflow.Schedule, error) {
	alg, err := cs.alg(name)
	if err != nil {
		return nil, err
	}
	rows, err := sched.SweepSchedules(alg, cs.swDst[name], cs.w, cs.m, budgets)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cs.swDst[name] = rows
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
		mk, err := cs.makespan(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		dst = append(dst, mk)
	}
	return dst, nil
}

// makespan evaluates a schedule of the current instance with the pooled
// timing: the first schedule per instance pays one NewTiming (the graph
// structure changed under the pooled builder, detected via its Version);
// every further schedule is an in-place Update.
func (cs *campaignScratch) makespan(s workflow.Schedule) (float64, error) {
	if err := cs.w.ValidateSchedule(s, len(cs.m.Catalog)); err != nil {
		return 0, err
	}
	cs.times = cs.m.TimesInto(s, cs.times)
	g := cs.w.Graph()
	if cs.t == nil || cs.tg != g || cs.tver != g.Version() {
		t, err := dag.NewTiming(g, cs.times, nil)
		if err != nil {
			return 0, err
		}
		cs.t, cs.tg, cs.tver = t, g, g.Version()
		return t.Makespan, nil
	}
	if err := cs.t.Update(cs.times); err != nil {
		return 0, err
	}
	return cs.t.Makespan, nil
}
