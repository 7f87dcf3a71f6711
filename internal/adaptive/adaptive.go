// Package adaptive studies MED-CC scheduling under runtime uncertainty:
// the static schedule is computed from estimated runtimes, but modules'
// actual durations deviate, so the actual bill drifts from the plan. The
// engine executes a workflow on a sim.Queue, one finish event per module,
// and, optionally, re-plans the not-yet-started modules after every
// completion with the budget that is actually left — the dynamic
// counterpart the paper's related work (dynamic critical path scheduling,
// ref [8]) argues for. A re-plan is a Critical-Greedy solve of package
// sched.
//
// Execution follows the paper's one-to-one model: every module gets its
// own VM of the scheduled type, starts as soon as its inputs are complete
// (transfers are intra-cloud and free), and is billed for its actual
// duration under the configured policy.
package adaptive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"medcc/internal/cloud"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// Perturb maps a module's estimated duration to its actual duration.
// Implementations must return a finite, non-negative value; Run rejects
// any other.
type Perturb func(rng *rand.Rand, module int, estimate float64) float64

// Uniform returns a Perturb drawing actual = estimate * U[1-under, 1+over]
// — e.g. Uniform(0, 0.5) models runs up to 50% slower than estimated.
func Uniform(under, over float64) Perturb {
	return func(rng *rand.Rand, _ int, est float64) float64 {
		f := 1 - under + float64(rng.Float64()*(under+over))
		if f < 0 {
			f = 0
		}
		return est * f
	}
}

// Config describes one adaptive execution.
type Config struct {
	Workflow *workflow.Workflow
	Catalog  cloud.Catalog
	Billing  cloud.BillingPolicy
	Budget   float64
	// Perturb generates actual durations; nil means actual == estimate.
	Perturb Perturb
	// Seed drives the perturbation; runs are deterministic per seed.
	Seed int64
	// Replan re-runs Critical-Greedy over the unstarted modules after
	// every completion, spending whatever budget actually remains.
	Replan bool
}

// Outcome reports one execution.
type Outcome struct {
	// Makespan is the actual end-to-end duration.
	Makespan float64
	// Cost is the actual billed spend.
	Cost float64
	// Overspend is max(0, Cost - Budget): how far runtime noise pushed
	// the bill past the plan.
	Overspend float64
	// Replans counts re-planning rounds that changed the schedule.
	Replans int
	// Final is the schedule as executed.
	Final workflow.Schedule
}

// The states of a module during a run.
const (
	unstarted uint8 = iota
	running
	finished
)

// Run executes the workflow under the configuration. Each module that
// starts schedules its finish event on a sim.Queue, due its actual
// duration later; modules that become ready together start in index
// order, and completions due at the same time are handled in the order
// their modules started.
func Run(cfg Config) (*Outcome, error) {
	w := cfg.Workflow
	if w == nil {
		return nil, errors.New("adaptive: nil workflow")
	}
	m, err := w.BuildMatrices(cfg.Catalog, cfg.Billing)
	if err != nil {
		return nil, err
	}
	cg := sched.CriticalGreedy()
	s, err := cg.Schedule(w, m, cfg.Budget)
	if err != nil {
		return nil, err
	}
	var rng *rand.Rand // only Perturb draws from it
	if cfg.Perturb != nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	g := w.Graph()
	n := w.NumModules()

	// Draw actual duration factors up front (per module, independent of
	// the chosen type: a module that runs 20% long does so on any VM).
	factor := make([]float64, n)
	for i := range factor {
		factor[i] = 1
		if cfg.Perturb == nil || w.Module(i).Fixed {
			continue
		}
		est := m.TE[i][s[i]]
		act := cfg.Perturb(rng, i, est)
		if !(act >= 0) || math.IsInf(act, 1) {
			return nil, fmt.Errorf("adaptive: actual duration %v for module %d is not finite and non-negative", act, i)
		}
		if est > 0 {
			factor[i] = act / est
		}
	}
	actualDur := func(i int) float64 {
		if w.Module(i).Fixed {
			return w.Module(i).FixedTime
		}
		return float64(m.TE[i][s[i]] * factor[i])
	}

	var rp *replanner
	if cfg.Replan {
		rp = &replanner{w: w.Clone(), cg: cg}
	}
	var q sim.Queue
	state := make([]uint8, n)
	pending := make([]int, n) // unfinished predecessors
	var ready []int           // modules to start, in index order
	for i := range pending {
		pending[i] = g.InDegree(i)
		if pending[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := &Outcome{}
	spent := 0.0
	for done := 0; ; {
		for _, i := range ready {
			state[i] = running
			q.Schedule(actualDur(i), 0, int32(i)) // the one event kind: module i finishes
		}
		ready = ready[:0]
		if done == n {
			break
		}
		ev, ok, err := q.Next()
		if err != nil {
			return nil, fmt.Errorf("adaptive: %w", err)
		}
		if !ok {
			return nil, fmt.Errorf("adaptive: deadlock with %d/%d modules done", done, n)
		}
		i := int(ev.Arg)
		state[i] = finished
		if !w.Module(i).Fixed { // fixed modules are free
			spent += float64(m.Billing.BilledTime(actualDur(i)) * m.Catalog[s[i]].Rate)
		}
		done++
		for _, v := range g.Succ(i) {
			pending[v]--
			if pending[v] == 0 {
				ready = append(ready, v)
			}
		}
		slices.Sort(ready)
		if rp != nil && done < n {
			changed, err := rp.replan(w, m, s, state, cfg.Budget-spent)
			if err != nil {
				return nil, fmt.Errorf("adaptive: re-plan: %w", err)
			}
			if changed {
				out.Replans++
			}
		}
	}
	out.Makespan, out.Cost, out.Final = q.Now(), spent, s
	out.Overspend = max(0, spent-cfg.Budget)
	return out, nil
}

// replanner re-plans the unstarted modules of one run: it owns a clone of
// the workflow in which every started module is fixed at its estimated
// time, so a Critical-Greedy solve of the clone schedules exactly the
// unstarted modules, against the critical path the plan expects.
type replanner struct {
	// medcc:lint-ignore epochguard — owner: the run's private clone, changed only by replan, which rebuilds m from it before every solve.
	w *workflow.Workflow
	// medcc:lint-ignore epochguard — owner: rebuilt in place from w before every solve.
	m    *workflow.Matrices
	cg   *sched.Greedy
	plan workflow.Schedule
}

// replan re-plans the unstarted modules of s, under the run's matrices m,
// at the budget left after the actual spend, less the estimated cost of
// the running modules. Even the least-cost remainder may exceed what is
// left once actuals ran over; the remainder then runs least-cost and
// accepts the overshoot — aborting the workflow would waste everything
// already paid. It reports whether the schedule changed.
func (rp *replanner) replan(w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule, state []uint8, left float64) (bool, error) {
	committed, open := 0.0, false
	for i, st := range state {
		switch {
		case w.Module(i).Fixed:
			// Free, and fixed in the clone already.
		case st == unstarted:
			open = true
		default: // started: fixed at the time the plan expects of it
			if st == running {
				committed += m.CE[i][s[i]]
			}
			mod := rp.w.Module(i)
			mod.Fixed, mod.FixedTime = true, m.TE[i][s[i]]
			rp.w.SetModule(i, mod)
		}
	}
	if !open {
		return false, nil
	}
	rm, err := rp.w.BuildMatricesInto(m.Catalog, m.Billing, rp.m)
	if err != nil {
		return false, err
	}
	rp.m = rm
	plan, err := rp.cg.ScheduleInto(rp.plan, rp.w, rm, left-committed)
	if errors.Is(err, sched.ErrInfeasible) {
		plan, err = rm.LeastCostInto(rp.w, rp.plan), nil
	}
	if err != nil {
		return false, err
	}
	rp.plan = plan
	changed := false
	for i, j := range plan {
		if j >= 0 && s[i] != j {
			s[i], changed = j, true
		}
	}
	return changed, nil
}
