package exper

import (
	"math"

	"medcc/internal/gen"
	"medcc/internal/sched"
)

// TableIIIRow compares Critical-Greedy against the exhaustive optimum on
// one small random instance at a random budget (Table III of the paper).
type TableIIIRow struct {
	Size     gen.ProblemSize
	Instance int
	CG       float64
	Optimal  float64
}

// TableIIISizes are the paper's three small-scale problem sizes.
func TableIIISizes() []gen.ProblemSize {
	return []gen.ProblemSize{{M: 5, E: 6, N: 3}, {M: 6, E: 11, N: 3}, {M: 7, E: 14, N: 3}}
}

// ExtendedOptimalitySizes are the larger exact-baseline sizes that the
// branch-and-bound solver's bounds prove optimal: still three VM types,
// but 10 to 14 modules, roughly doubling the assignment-space exponent of
// the paper's largest optimality instance. They back the opt-in extended
// runs of the optimality studies (cmd/experiments -optext).
func ExtendedOptimalitySizes() []gen.ProblemSize {
	return []gen.ProblemSize{{M: 10, E: 22, N: 3}, {M: 12, E: 27, N: 3}, {M: 14, E: 33, N: 3}}
}

// TableIII regenerates Table III: instancesPerSize random instances per
// small problem size, each scheduled by CG and by exhaustive search at a
// random budget within [Cmin, Cmax]. The paper uses 5 instances per size.
func TableIII(seed int64, instancesPerSize int) ([]TableIIIRow, error) {
	return TableIIIAt(seed, instancesPerSize, TableIIISizes())
}

// TableIIIAt is TableIII over caller-chosen problem sizes, so the extended
// exact-baseline sizes can reuse the same harness. Each campaign worker
// owns a scratch with a pooled generator, schedulers, and exact solver;
// the numbers are bit-identical to the one-shot path and independent of
// the worker count. It errors if the exact solver fails to prove
// optimality on any instance within its node limit.
func TableIIIAt(seed int64, instancesPerSize int, sizes []gen.ProblemSize) ([]TableIIIRow, error) {
	rows := make([]TableIIIRow, len(sizes)*instancesPerSize)
	pool := newScratchPool(len(rows))
	err := parallelForWorkers(len(rows), func(wk, k int) error {
		cs := &pool[wk]
		size := sizes[k/instancesPerSize]
		inst := k % instancesPerSize
		cmin, cmax, err := cs.smallInstance(seed, k, size)
		if err != nil {
			return err
		}
		// A separate stream for the budget draw: reusing newRNG(seed, k)
		// would replay the instance generator's first draw and correlate
		// the budget with the first module's workload.
		rng := newRNG(seed+1_000_000_007, k)
		budget := sched.BudgetAt(cmin, cmax, rng.Float64())
		cg, err := cs.med("critical-greedy", budget)
		if err != nil {
			return err
		}
		opt, err := cs.optimalMED(budget)
		if err != nil {
			return err
		}
		rows[k] = TableIIIRow{Size: size, Instance: inst + 1, CG: cg, Optimal: opt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig7Row is one bar group of Fig. 7: over many random instances of one
// problem size, the percentage of instances where each algorithm found a
// schedule with the optimal MED. GainWRFPct is the GAIN3 variant
// reverse-engineered from the paper's Table VII (sched.Gain3WRF), the bar
// the paper itself plots; GainPct is the literal-reading GAIN3.
type Fig7Row struct {
	Size       gen.ProblemSize
	Instances  int
	CGPct      float64
	GainPct    float64
	GainWRFPct float64
}

// Fig7Sizes are the four problem sizes of Fig. 7.
func Fig7Sizes() []gen.ProblemSize {
	return []gen.ProblemSize{{M: 5, E: 6, N: 3}, {M: 6, E: 11, N: 3}, {M: 7, E: 14, N: 3}, {M: 8, E: 18, N: 3}}
}

// Fig7 regenerates Fig. 7: for each size, instances random workflows with
// the budget at the median of [Cmin, Cmax]; report how often each
// heuristic matches the optimal MED. The paper uses 100 instances.
func Fig7(seed int64, instances int) ([]Fig7Row, error) {
	return Fig7At(seed, instances, Fig7Sizes())
}

// Fig7At is Fig7 over caller-chosen problem sizes (the opt-in extended
// exact-baseline sizes reuse it). Like TableIIIAt it runs on pooled
// per-worker scratches and errors if any instance cannot be solved to
// proven optimality within the exact solver's node limit.
func Fig7At(seed int64, instances int, sizes []gen.ProblemSize) ([]Fig7Row, error) {
	rows := make([]Fig7Row, len(sizes))
	pool := newScratchPool(instances)
	hits := make([][3]bool, instances)
	for si, size := range sizes {
		err := parallelForWorkers(instances, func(wk, k int) error {
			cs := &pool[wk]
			cmin, cmax, err := cs.smallInstance(seed+int64(si)*7919, k, size)
			if err != nil {
				return err
			}
			budget := (cmin + cmax) / 2
			cg, err := cs.med("critical-greedy", budget)
			if err != nil {
				return err
			}
			gain, err := cs.med("gain3", budget)
			if err != nil {
				return err
			}
			wrf, err := cs.med("gain3-wrf", budget)
			if err != nil {
				return err
			}
			opt, err := cs.optimalMED(budget)
			if err != nil {
				return err
			}
			hits[k][0] = math.Abs(cg-opt) <= 1e-9
			hits[k][1] = math.Abs(gain-opt) <= 1e-9
			hits[k][2] = math.Abs(wrf-opt) <= 1e-9
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Size: size, Instances: instances}
		for k := 0; k < instances; k++ {
			if hits[k][0] {
				row.CGPct++
			}
			if hits[k][1] {
				row.GainPct++
			}
			if hits[k][2] {
				row.GainWRFPct++
			}
		}
		row.CGPct *= 100 / float64(instances)
		row.GainPct *= 100 / float64(instances)
		row.GainWRFPct *= 100 / float64(instances)
		rows[si] = row
	}
	return rows, nil
}
