package exper

import (
	"io"
	"math"

	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/stats"
)

// AblationRow reports the average MED of one greedy-engine configuration
// across random instances and budget levels, isolating Critical-Greedy's
// two design choices (DESIGN.md A1): the candidate set (critical modules
// vs all modules) and the ranking criterion (max time decrease vs max
// time/cost ratio).
type AblationRow struct {
	Name       string
	Candidates string
	Criterion  string
	AvgMED     float64
}

// Ablation runs the 2x2 engine grid plus the GAIN baselines on
// `instances` random workflows of the given size at `levels` budget
// levels each.
func Ablation(seed int64, size gen.ProblemSize, instances, levels int) ([]AblationRow, error) {
	configs := []struct {
		name, cand, crit string
	}{
		{"critical-greedy", "critical", "max-dT"},
		{"critical-ratio", "critical", "max-ratio"},
		{"all-timedec", "all", "max-dT"},
		{"gain-fixpoint", "all", "max-ratio"},
		{"gain3", "all (once/task)", "max-ratio"},
	}
	results := make([][]float64, instances) // per item: configs x levels MEDs
	err := sizePlan(seed, size, instances).run(nil, func(cs *campaignScratch, k int, cmin, cmax float64) error {
		budgets := cs.budgetGrid(cmin, cmax, levels)
		out := make([]float64, 0, len(configs)*levels)
		for _, cfg := range configs {
			var err error
			if out, err = cs.meds(cfg.name, budgets, out); err != nil {
				return err
			}
		}
		results[k] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	meds := make([][]float64, len(configs))
	for k := 0; k < instances; k++ {
		for ci := range configs {
			meds[ci] = append(meds[ci], results[k][ci*levels:(ci+1)*levels]...)
		}
	}
	rows := make([]AblationRow, len(configs))
	for ci, cfg := range configs {
		rows[ci] = AblationRow{
			Name:       cfg.name,
			Candidates: cfg.cand,
			Criterion:  cfg.crit,
			AvgMED:     stats.Mean(meds[ci]),
		}
	}
	return rows, nil
}

// ValidationRow reports the agreement between the analytic model and the
// discrete-event simulator on one random instance (DESIGN.md A2).
type ValidationRow struct {
	Size        gen.ProblemSize
	Instance    int
	MakespanErr float64 // |analytic - simulated|
	CostErr     float64
}

// sizePlan is the item plan of the single-size experiments (A1, A2):
// item k is instance k of size.
func sizePlan(seed int64, size gen.ProblemSize, instances int) plan {
	return plan{n: instances, item: func(k int) planItem {
		return planItem{seed: seed, idx: k, size: size}
	}}
}

// SimValidation cross-checks analytic makespan/cost against event-driven
// replay on `instances` random instances of the given size: each worker
// schedules its instance with CG at a random budget through its runner and
// replays the schedule on its scratch's pooled sim.Replayer.
func SimValidation(seed int64, size gen.ProblemSize, instances int) ([]ValidationRow, error) {
	return simValidation(seed, sizePlan(seed, size, instances), nil)
}

// SimValidationFromCorpus is SimValidation running on a
// WriteValidationCorpus stream, which must hold `instances` records of
// the given size.
func SimValidationFromCorpus(r io.Reader, seed int64, size gen.ProblemSize, instances int) ([]ValidationRow, error) {
	return simValidation(seed, sizePlan(seed, size, instances), r)
}

// WriteValidationCorpus writes the A2 simulator-validation instance set
// as a binary corpus: record k is instance k of the given size.
func WriteValidationCorpus(w io.Writer, seed int64, size gen.ProblemSize, instances int, compress bool) (int, error) {
	return sizePlan(seed, size, instances).writeCorpus(w, compress)
}

// simValidation is the A2 body over the plan's instances, regenerated or
// read from src (see plan.run).
func simValidation(seed int64, p plan, src io.Reader) ([]ValidationRow, error) {
	rows := make([]ValidationRow, p.n)
	err := p.run(src, func(cs *campaignScratch, k int, cmin, cmax float64) error {
		// Separate stream for the budget draw (see TableIIIAt).
		rng := newRNG(seed+1_000_000_007, k)
		s, err := cs.sched("critical-greedy", sched.BudgetAt(cmin, cmax, rng.Float64()))
		if err != nil {
			return err
		}
		med, err := cs.run.MED(cs.w, cs.m, s)
		if err != nil {
			return err
		}
		replay, err := cs.replayer.Run(sim.Config{Workflow: cs.w, Matrices: cs.m, Schedule: s})
		if err != nil {
			return err
		}
		rows[k] = ValidationRow{
			Size:        p.item(k).size,
			Instance:    k + 1,
			MakespanErr: math.Abs(replay.Makespan - med),
			CostErr:     math.Abs(replay.Cost - cs.m.Cost(s)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
