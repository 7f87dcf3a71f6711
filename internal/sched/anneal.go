package sched

import (
	"math"
	"math/rand"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// Anneal solves MED-CC by simulated annealing: a random walk of
// annealIterations steps over type assignments with budget repair,
// accepting uphill moves with probability exp(-dMED/T) under geometric
// cooling by annealCooling per step. It is a metaheuristic baseline:
// slower than the greedy family, immune to their local minima, and
// seeded with Critical-Greedy so it never returns anything worse.
type Anneal struct {
	// Seed makes runs reproducible; the registry default is 1.
	Seed int64
}

// The walk's length and its geometric cooling factor per step.
const (
	annealIterations = 4000
	annealCooling    = 0.999
)

// Name implements Scheduler.
func (a *Anneal) Name() string { return "anneal" }

// Schedule implements Scheduler.
func (a *Anneal) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	if _, _, err := checkFeasible(w, m, budget); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(a.Seed))
	mods := w.Schedulable()
	n := len(m.Catalog)

	cheapest := make(map[int]int, len(mods))
	for _, i := range mods {
		best := 0
		for j := 1; j < n; j++ {
			if m.CE[i][j] < m.CE[i][best] {
				best = j
			}
		}
		cheapest[i] = best
	}
	// All per-iteration state is allocated once here and reused: the
	// permutation buffer (permInto replicates rand.Perm's stream), the
	// trial/current schedules (swapped on acceptance), and one incremental
	// timing refreshed in place by med.
	perm := make([]int, len(mods))
	repair := func(s workflow.Schedule) {
		cost := m.Cost(s)
		permInto(rng, perm)
		for _, k := range perm {
			if cost <= budget+costEps {
				return
			}
			i := mods[k]
			if s[i] != cheapest[i] {
				cost -= m.CE[i][s[i]] - m.CE[i][cheapest[i]]
				s[i] = cheapest[i]
			}
		}
	}
	var (
		times  []float64
		timing *dag.Timing
	)
	med := func(s workflow.Schedule) float64 {
		times = m.TimesInto(s, times)
		if timing == nil {
			t, err := dag.NewTiming(w.Graph(), times, nil)
			if err != nil {
				return math.Inf(1) // unreachable on a validated workflow
			}
			timing = t
		} else if err := timing.Update(times); err != nil {
			return math.Inf(1)
		}
		return timing.Makespan
	}

	cur, err := CriticalGreedy().Schedule(w, m, budget)
	if err != nil {
		return nil, err
	}
	curMED := med(cur)
	best := cur.Clone()
	bestMED := curMED
	trial := make(workflow.Schedule, len(cur))

	// Initial temperature: a few percent of the starting makespan, so
	// early uphill moves of that scale are plausible.
	temp := curMED * 0.05
	if temp <= 0 {
		temp = 1
	}
	for it := 0; it < annealIterations; it++ {
		copy(trial, cur)
		i := mods[rng.Intn(len(mods))]
		trial[i] = rng.Intn(n)
		repair(trial)
		if m.Cost(trial) > budget+costEps {
			continue // repair could not fit this neighbor
		}
		tMED := med(trial)
		d := tMED - curMED
		if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
			cur, trial = trial, cur
			curMED = tMED
			if curMED < bestMED {
				copy(best, cur)
				bestMED = curMED
			}
		}
		temp *= annealCooling
	}
	return best, nil
}

func init() {
	Register("anneal", func() Scheduler { return &Anneal{Seed: 1} })
}
