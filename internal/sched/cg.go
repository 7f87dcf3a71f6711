package sched

import (
	"math"

	"medcc/internal/workflow"
)

// CandidateSet selects which modules a greedy rescheduler may upgrade in
// each iteration.
type CandidateSet int

const (
	// CriticalOnly restricts candidates to modules on the current
	// critical path (Critical-Greedy's choice, Alg. 1 step 11).
	CriticalOnly CandidateSet = iota
	// AllModules considers every schedulable module (GAIN's choice).
	AllModules
)

// Criterion ranks candidate (module, type) upgrades.
type Criterion int

const (
	// MaxTimeDecrease picks the largest execution time decrease, ties
	// broken by the minimum cost increase (Alg. 1 step 13).
	MaxTimeDecrease Criterion = iota
	// MaxRatio picks the largest time-decrease / cost-increase ratio
	// (the GainWeight of Sakellariou et al.); free upgrades (zero cost
	// increase) rank above everything, ordered by time decrease.
	MaxRatio
)

// Greedy is the shared rescheduling engine behind Critical-Greedy and the
// GAIN family: start from the least-cost schedule and repeatedly apply the
// best affordable upgrade until the leftover budget allows none.
//
// The four (CandidateSet, Criterion) combinations are exactly the ablation
// grid of DESIGN.md: Critical-Greedy is {CriticalOnly, MaxTimeDecrease},
// GAIN3 is {AllModules, MaxRatio}.
type Greedy struct {
	Label      string
	Candidates CandidateSet
	Rank       Criterion

	eng engine
}

// CriticalGreedy returns the paper's Critical-Greedy algorithm (Alg. 1).
func CriticalGreedy() *Greedy {
	return &Greedy{Label: "critical-greedy", Candidates: CriticalOnly, Rank: MaxTimeDecrease}
}

// Name implements Scheduler.
func (g *Greedy) Name() string { return g.Label }

// Schedule implements Scheduler.
func (g *Greedy) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return g.ScheduleInto(nil, w, m, budget)
}

// ScheduleInto implements IntoScheduler. Instead of rescanning every
// (module, type) pair per iteration, the engine maintains a per-module
// best-upgrade cache with a lazy-deletion heap on top (see candTab): each
// iteration pops the globally best affordable upgrade, applies it, and
// repairs only the caches the accept invalidated. For CriticalOnly the
// candidate pool is only rebuilt when the accept moved the makespan (see
// run for why a stable makespan needs no rebuild).
//
// medcc:allocfree
// medcc:deterministic — replayed bit-identical by the differential tests
func (g *Greedy) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	e := &g.eng
	e.bind(w, m)
	if g.Candidates == CriticalOnly {
		if err := e.resetTiming(s); err != nil {
			return nil, err
		}
	}
	e.ct.start(e, g.candMode())
	g.run(s, &ctmp, budget)
	return s, nil
}

// candMode maps the configured Criterion onto the candidate-table mode.
func (g *Greedy) candMode() candMode {
	if g.Rank == MaxRatio {
		return candMaxRatio
	}
	return candMaxTime
}

// run drains the candidate heap at the given budget, leaving s, *ctmp, and
// the candidate state positioned for a warm continuation at a larger
// budget (SweepInto's per-level step).
//
// medcc:allocfree
func (g *Greedy) run(s workflow.Schedule, ctmp *float64, budget float64) {
	e := &g.eng
	needTiming := g.Candidates == CriticalOnly
	act := actAll
	if needTiming {
		act = actCritical
	}
	cextra := budget - *ctmp
	if cextra <= 0 {
		return
	}
	e.ct.rebuild(s, cextra, act)
	for {
		cextra = budget - *ctmp
		if cextra <= 0 {
			return
		}
		i, j, dc, ok := e.ct.popBest(s, cextra, act)
		if !ok {
			return // no affordable rescheduling (Alg. 1 step 14)
		}
		s[i] = j
		*ctmp += dc
		next := budget - *ctmp
		mkChanged := needTiming && e.updateNode(i, j)
		// The accepted module's own cache is stale under its new type in
		// every mode.
		e.ct.evalModule(i, s, next)
		if dc < 0 {
			// A cost-saving upgrade grew the leftover budget: winners
			// cached under less budget may now lose to newly affordable
			// options.
			e.ct.refreshGrown(s, next, act)
		}
		if mkChanged {
			// The makespan anchor moved, so the critical set may have
			// changed arbitrarily: rebuild the pool (cache reuse makes
			// this an O(mods) scan, not an option rescan).
			e.ct.rebuild(s, next, act)
		} else if e.ct.bj[i] >= 0 && e.ct.active(i, act) {
			// evalModule orphaned the accepted module's entries; every
			// other pool member still has a live one. For CriticalOnly
			// that rests on the makespan being bit-unchanged: an accept
			// strictly lowers one weight, so EFT and Tail can only fall,
			// no slack shrinks and no module turns critical (modules that
			// stop being critical drop out on pop).
			e.ct.push(i)
		}
	}
}

// SweepInto implements Sweeper: schedule the same instance at each budget
// of an ascending sweep, resuming level k from level k-1's schedule,
// incremental timing, and surviving candidate caches instead of re-solving
// from the least-cost schedule. The level-k schedule is written into
// dst[k] (reused when already the right length; dst is grown as needed).
//
// Only level 0 is a cold solve. A later level is generally NOT the
// schedule a cold ScheduleInto returns at its budget: the drain resumes
// from the previous level's fixpoint, while a cold run at the larger
// budget can afford, and so may pick, upgrades the smaller budget ruled
// out, and the two accept sequences part ways from that first choice.
// Over the Table IV and Figs. 9-11 grids they disagree in 372 of 400 and
// 3745 of 4000 (instance, level) cells (pinned by the exper package's
// TestWarmSweepDivergesFromColdSolves).
//
// medcc:deterministic — the campaign cells are pinned to this sweep order
func (g *Greedy) SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	if err := checkAscending(budgets); err != nil {
		return nil, err
	}
	dst = growSweepDst(dst, len(budgets))
	if len(budgets) == 0 {
		return dst, nil
	}
	s, ctmp, err := checkFeasibleInto(w, m, budgets[0], g.eng.lc)
	if err != nil {
		return nil, err
	}
	e := &g.eng
	e.lc = s
	e.bind(w, m)
	if g.Candidates == CriticalOnly {
		if err := e.resetTiming(s); err != nil {
			return nil, err
		}
	}
	e.ct.start(e, g.candMode())
	for k, b := range budgets {
		g.run(s, &ctmp, b)
		dst[k] = copySchedule(dst[k], s)
	}
	return dst, nil
}

// costEps tolerates float jitter in cost arithmetic; costs are sums of
// products of catalog rates with small integers, so any real violation is
// far larger.
const costEps = 1e-9

// sameCost reports whether two spends are equal within costEps. The
// floateq analyzer mandates this helper over direct == on cost values.
func sameCost(a, b float64) bool { return math.Abs(a-b) <= costEps }

// ratio computes the GainWeight dt/dc, treating free or cost-saving
// upgrades as infinitely attractive.
func ratio(dt, dc float64) float64 {
	if dc <= costEps {
		return math.Inf(1)
	}
	return dt / dc
}

func init() {
	Register("critical-greedy", func() Scheduler { return CriticalGreedy() })
	Register("critical-ratio", func() Scheduler {
		return &Greedy{Label: "critical-ratio", Candidates: CriticalOnly, Rank: MaxRatio}
	})
	Register("all-timedec", func() Scheduler {
		return &Greedy{Label: "all-timedec", Candidates: AllModules, Rank: MaxTimeDecrease}
	})
}
