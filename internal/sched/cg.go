package sched

import (
	"math"
	"slices"

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
	// Sweep scratch: the working schedule, kept apart from the engine's
	// least-cost one, the steps of the current run, and SweepInto's view
	// of the previous level's run.
	cur   workflow.Schedule
	steps []sweepStep
	flat  [1][]sweepStep
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
// best-upgrade cache (see candTab) and re-evaluates only the caches an
// accept invalidated. Each step pops the globally best affordable
// upgrade from a lazy-deletion heap on top of the caches or, for
// CriticalOnly after the makespan moved, takes it from one pass over the
// critical modules' caches (see run).
//
// medcc:allocfree
// medcc:deterministic — replayed bit-identical by the differential tests
func (g *Greedy) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	s, ctmp, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	g.eng.bind(w, m)
	if err := g.restart(s); err != nil {
		return nil, err
	}
	g.run(s, &ctmp, budget, false)
	return s, nil
}

// restart points the timing (CriticalOnly) and the candidate table at a
// schedule the run starts from.
func (g *Greedy) restart(s workflow.Schedule) error {
	e := &g.eng
	if g.Candidates == CriticalOnly {
		if err := e.resetTiming(s); err != nil {
			return err
		}
	}
	e.ct.start(e, g.candMode())
	return nil
}

// candMode maps the configured Criterion onto the candidate-table mode.
func (g *Greedy) candMode() candMode {
	if g.Rank == MaxRatio {
		return candMaxRatio
	}
	return candMaxTime
}

// run applies the best affordable upgrade at the given budget from s,
// whose cost is *ctmp, until none is left. With record set it appends
// each step to g.steps: the accepts, then the terminal step that ended
// the run.
//
// AllModules drains the candidate heap, built once. CriticalOnly selects
// a step by one scan over the critical modules (candTab.scanCritical)
// whenever the critical set may have changed: at the start and after an
// accept that moved the makespan, which on random instances is every
// accept. An accept that keeps the makespan leaves every other critical
// module critical (monotone slack, DESIGN.md §7), so on tied critical
// paths the heap is filled once and drained while the makespan holds.
// A scan and a heap fill yield the next step's certificate; any other
// step records -Inf, which never holds.
//
// medcc:allocfree
func (g *Greedy) run(s workflow.Schedule, ctmp *float64, budget float64, record bool) {
	e := &g.eng
	critical := g.Candidates == CriticalOnly
	act := actAll
	if critical {
		act = actCritical
	}
	// heap reports that the candidate heap holds a live entry for every
	// active module.
	heap := false
	cert := math.Inf(-1)
	if !critical && budget-*ctmp > 0 {
		cert = e.ct.rebuild(s, budget-*ctmp, act)
		heap = true
	}
	for {
		cextra := budget - *ctmp
		if cextra <= 0 {
			if record {
				g.steps = append(g.steps, sweepStep{cost: *ctmp, mod: -1, spent: true})
			}
			return
		}
		var i, j int
		var dc float64
		var ok bool
		if heap {
			i, j, dc, ok = e.ct.popBest(s, cextra, act)
		} else {
			i, j, dc, cert, ok = e.ct.scanCritical(s, cextra)
		}
		if record {
			g.steps = append(g.steps, sweepStep{cost: *ctmp, cert: cert, mod: int32(i), typ: int32(j)})
		}
		if !ok {
			return // no affordable rescheduling (Alg. 1 step 14)
		}
		s[i] = j
		*ctmp += dc
		cert = math.Inf(-1)
		next := budget - *ctmp
		// The accepted module's own cache is stale under its new type in
		// every mode.
		e.ct.evalModule(i, s, next)
		if critical && e.updateNode(i, j) {
			// The makespan anchor moved, so the critical set may have
			// changed arbitrarily: the next step scans.
			heap = false
			continue
		}
		if !heap {
			// The first makespan-preserving accept since a scan: fill
			// the heap, which the next steps drain while the makespan
			// holds.
			cert = e.ct.rebuild(s, next, act)
			heap = true
			continue
		}
		if dc < 0 {
			// A cost-saving upgrade grew the leftover budget: winners
			// cached under less budget may now lose to newly affordable
			// options.
			e.ct.refreshGrown(s, next, act)
		}
		if e.ct.bj[i] >= 0 && e.ct.active(i, act) {
			// evalModule orphaned the accepted module's entries; every
			// other pool member still has a live one (modules that stop
			// being critical drop out on pop).
			e.ct.push(i)
		}
	}
}

// sweepStep is one step of a recorded run: the accept it made (mod -1 on
// the terminal step that ended the run), the cost before it, and its
// certificate.
type sweepStep struct {
	cost, cert float64
	mod, typ   int32
	spent      bool // terminal: the leftover budget was exhausted
}

// holds reports whether a run at budget b that reaches this step's state
// makes the same move. Every cold run starts from the least-cost schedule
// and sees the budget only through the leftover budget b-cost, so the
// step repeats while no improving row that failed the affordability test
// passes it — cert is their cheapest cost increase, and the comparison is
// the test's own float expression — and an exhausted terminal repeats
// while b-cost stays non-positive. Replaying a held step therefore keeps
// its certificate: the set of failing rows is unchanged.
func (st *sweepStep) holds(b float64) bool {
	if st.spent {
		return b-st.cost <= 0
	}
	return st.cert > (b-st.cost)+costEps
}

// SweepInto implements Sweeper: level k is exactly the schedule
// ScheduleInto returns at budgets[k]; the sweep only shares work between
// levels. Each level resumes from the previous level's run (see resume),
// which stays in g.steps: the held prefix in place, this level's steps
// appended after it. The level-k schedule is written into dst[k] (reused
// when already the right length; dst is grown as needed).
//
// medcc:deterministic
func (g *Greedy) SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	dst, cmin, err := g.eng.startSweep(dst, w, m, budgets)
	if err != nil || len(budgets) == 0 {
		return dst, err
	}
	g.cur = copySchedule(g.cur, g.eng.lc)
	s := g.cur
	g.steps = g.steps[:0]
	for k, b := range budgets {
		g.flat[0] = g.steps
		runs := stepRuns(g.flat[:])
		p, n := runs.held(b)
		g.steps = g.steps[:p]
		if _, err := g.resume(s, cmin, runs, p, n, b, k > 0, true); err != nil {
			return nil, err
		}
		dst[k] = copySchedule(dst[k], s)
	}
	return dst, nil
}

// ResumeInto implements Sweeper: it returns exactly what ScheduleInto
// returns at budget, the same schedule or the same error. When tr was
// recorded by a Greedy of the same CandidateSet and Criterion on the same
// (w, m) at a budget at or below budget, the solve replays the prefix of
// tr's steps that still holds and runs the loop from there (see resume);
// any other trail, nil included, solves cold.
//
// medcc:allocfree
// medcc:deterministic — resumed solves are differential-tested against
// ScheduleInto
func (g *Greedy) ResumeInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, tr *Trail) (workflow.Schedule, error) {
	if !tr.resumable(g.trailKind(), w, m, budget) {
		return g.ScheduleInto(dst, w, m, budget)
	}
	s, cmin, err := checkFeasibleInto(w, m, budget, dst)
	if err != nil {
		return nil, err
	}
	g.eng.bind(w, m)
	p, n := tr.runs.held(budget)
	if _, err := g.resume(s, cmin, tr.runs, p, n, budget, false, false); err != nil {
		return nil, err
	}
	return s, nil
}

// resume is the one replay path of a Greedy solve from a recorded run;
// SweepInto, ResumeInto and SweepGrid's levels all go through it. runs
// was recorded on the bound instance at a budget at or below budget, and
// its first p of n steps hold at budget. s holds the least-cost schedule,
// of cost cmin, unless live is set: then s holds the run's final schedule
// and the engine its timing and candidate caches, as between the levels
// of one sweep. A run whose terminal step holds too is the answer. One
// whose accepts all hold continues from its end state when live.
// Otherwise the held prefix is replayed onto the least-cost schedule and
// the loop runs from there; the recorded cost is the one a cold run sums
// to, bit for bit. With record set the steps of that run are appended to
// g.steps. It reports whether the loop ran.
//
// medcc:allocfree
func (g *Greedy) resume(s workflow.Schedule, cmin float64, runs stepRuns, p, n int, budget float64, live, record bool) (ran bool, err error) {
	switch {
	case n > 0 && p == n:
		// The terminal holds too: budget repeats the run's schedule.
		if !live {
			runs.replay(s, n-1)
		}
		return false, nil
	case n > 0 && p == n-1 && live:
		// Every accept holds: continue from the end state, whose timing
		// and caches are current.
		ctmp := runs.at(p).cost
		g.run(s, &ctmp, budget, record)
		return true, nil
	}
	ctmp := cmin
	if n > 0 {
		ctmp = runs.at(p).cost
	}
	if live {
		copy(s, g.eng.lc)
	}
	runs.replay(s, p)
	if err := g.restart(s); err != nil {
		return false, err
	}
	g.run(s, &ctmp, budget, record)
	return true, nil
}

// resumeTrail solves one SweepGrid level at budget from the trail of a
// lower level (nil: from the least-cost schedule) and returns the level's
// schedule and trail: from itself when every step held, otherwise from's
// held prefix followed by a copy of the steps this run made. live
// reports that the engine still holds from's end state.
//
// medcc:coldpath — allocates each level's schedule and trail.
func (g *Greedy) resumeTrail(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, from *Trail, live bool) (workflow.Schedule, *Trail, error) {
	e := &g.eng
	lc, cmin, err := checkFeasibleInto(w, m, budget, e.lc)
	if err != nil {
		return nil, nil, err
	}
	e.lc = lc
	e.bind(w, m)
	kind := g.trailKind()
	var runs stepRuns
	if from.resumable(kind, w, m, budget) {
		runs = from.runs
	} else {
		from, live = nil, false
	}
	if !live {
		g.cur = copySchedule(g.cur, lc)
	}
	p, n := runs.held(budget)
	g.steps = g.steps[:0]
	ran, err := g.resume(g.cur, cmin, runs, p, n, budget, live, true)
	if err != nil {
		return nil, nil, err
	}
	tr := from
	if ran {
		tr = e.newTrail(kind, budget)
		tr.runs = runs.extend(p, slices.Clone(g.steps))
	}
	return copySchedule(dst, g.cur), tr, nil
}

// trailKind is the kind of the trails this configuration records.
func (g *Greedy) trailKind() trailKind {
	return greedyTrail + trailKind(2*int(g.Candidates)+int(g.Rank))
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
