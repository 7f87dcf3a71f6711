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
	// SweepInto scratch: the working schedule, kept apart from the
	// engine's least-cost one, and the record of the last level's run.
	cur   workflow.Schedule
	steps []sweepStep
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

// run drains the candidate heap at the given budget from s, whose cost is
// *ctmp. With record set it appends each step to g.steps: the accepts,
// then the terminal step that ended the run.
//
// medcc:allocfree
func (g *Greedy) run(s workflow.Schedule, ctmp *float64, budget float64, record bool) {
	e := &g.eng
	needTiming := g.Candidates == CriticalOnly
	act := actAll
	if needTiming {
		act = actCritical
	}
	// cert is the current step's certificate, valid only straight after
	// a rebuild; any other step gets -Inf, which never holds.
	cert := math.Inf(-1)
	if budget-*ctmp > 0 {
		cert = e.ct.rebuild(s, budget-*ctmp, act)
	}
	for {
		cextra := budget - *ctmp
		if cextra <= 0 {
			if record {
				g.steps = append(g.steps, sweepStep{cost: *ctmp, mod: -1, spent: true})
			}
			return
		}
		i, j, dc, ok := e.ct.popBest(s, cextra, act)
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
			cert = e.ct.rebuild(s, next, act)
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
// levels. Each level's run is recorded (see sweepStep), and the next level
// replays the longest prefix of that record whose steps hold at its
// budget, then runs the ordinary loop from there. The level-k schedule is
// written into dst[k] (reused when already the right length; dst is grown
// as needed).
//
// medcc:deterministic
func (g *Greedy) SweepInto(dst []workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budgets []float64) ([]workflow.Schedule, error) {
	dst, cmin, err := g.eng.startSweep(dst, w, m, budgets)
	if err != nil || len(budgets) == 0 {
		return dst, err
	}
	lc := g.eng.lc
	g.cur = copySchedule(g.cur, lc)
	s := g.cur
	var ctmp float64
	g.steps = g.steps[:0]
	for k, b := range budgets {
		p := 0
		for p < len(g.steps) && g.steps[p].holds(b) {
			p++
		}
		switch {
		case k > 0 && p == len(g.steps):
			// The terminal holds too: b repeats the last schedule.
		case k > 0 && p == len(g.steps)-1:
			// Every accept holds: continue from the end state, whose
			// timing and caches are current.
			g.steps = g.steps[:p]
			g.run(s, &ctmp, b, true)
		default:
			// Replay the holding prefix onto the least-cost schedule. The
			// recorded cost is the one a cold run sums to, bit for bit.
			copy(s, lc)
			ctmp = cmin
			if p > 0 {
				ctmp = g.steps[p].cost
			}
			for _, st := range g.steps[:p] {
				s[st.mod] = int(st.typ)
			}
			g.steps = g.steps[:p]
			if err := g.restart(s); err != nil {
				return nil, err
			}
			g.run(s, &ctmp, b, true)
		}
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
