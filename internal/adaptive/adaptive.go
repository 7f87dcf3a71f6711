// Package adaptive studies MED-CC scheduling under runtime uncertainty:
// the static schedule is computed from estimated runtimes, but modules'
// actual durations deviate, so the actual bill drifts from the plan. The
// engine executes a workflow event by event and, optionally, re-plans the
// not-yet-started modules after every completion with the budget that is
// actually left — the dynamic counterpart the paper's related work
// (dynamic critical path scheduling, ref [8]) argues for.
//
// Execution follows the paper's one-to-one model: every module gets its
// own VM of the scheduled type, starts as soon as its inputs are complete
// (transfers are intra-cloud and free), and is billed for its actual
// duration under the configured policy.
package adaptive

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// Perturb maps a module's estimated duration to its actual duration.
// Implementations must return a non-negative value.
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

// Run executes the workflow under the configuration.
func Run(cfg Config) (*Outcome, error) {
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

	// Draw actual duration factors up front (per module, independent of
	// the chosen type: a module that runs 20% long does so on any VM).
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
	var rp replanner // scratch shared by all replan rounds of this run

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
		// Advance to the earliest running completion.
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

// replanner holds the scratch reused across replan rounds of one run: the
// unstarted-module list, the previous-schedule snapshot, and an incremental
// timing refreshed in place, so the per-completion replanning loop makes no
// heap allocations after the first round.
type replanner struct {
	unstarted []int
	before    workflow.Schedule
	times     []float64
	t         *dag.Timing
}

// replanOnce re-runs the Critical-Greedy loop over the unstarted modules:
// they drop to their least-cost types, then upgrade while the estimated
// cost of the unstarted remainder fits the budget that is actually left
// (budget - actual spend - estimated cost of running modules). Returns
// whether the schedule changed.
func (rp *replanner) replanOnce(w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule, state []int, budget, spent float64) bool {
	g := w.Graph()
	unstartedMods := rp.unstarted[:0]
	committed := 0.0 // estimated cost of modules currently running
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

	// Reset the remainder to least-cost.
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
	// Even the least-cost remainder may exceed what is left once actuals
	// ran over; spend what we have and accept the overshoot — aborting
	// the workflow would waste everything already paid.
	fresh := true
	for avail-remaining > 0 {
		if fresh {
			// First iteration of a round: many assignments changed, so
			// refresh the timing wholesale; later iterations re-relax only
			// the upgraded module's suffix.
			rp.times = m.TimesInto(s, rp.times)
			if rp.t == nil {
				t, err := dag.NewTiming(g, rp.times, nil)
				if err != nil {
					break // cannot happen on a validated workflow
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
