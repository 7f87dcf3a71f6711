// Montage schedules a Montage-style astronomy mosaicking workflow (the
// wide-fan / gather / tail shape that motivates critical-path-aware
// budget spending) across several algorithms and budgets, comparing the
// analytic delay with a cold-start discrete-event replay.
//
// It demonstrates the repository on a workload class beyond the paper's
// WRF study, using the internal topology generator plus the public API.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"medcc"
	"medcc/internal/gen"
)

func main() {
	// A 12-image mosaic; the generator mirrors Montage's stage profile
	// (mProject fan, mDiffFit pairs, mBgModel gather, mAdd-heavy tail).
	w := gen.MontageLike(rand.New(rand.NewSource(42)), 12)

	types := medcc.Catalog{
		{Name: "t2.small", Power: 8, Rate: 1},
		{Name: "m5.large", Power: 20, Rate: 3},
		{Name: "c5.xlarge", Power: 34, Rate: 5},
		{Name: "c5.2xlarge", Power: 58, Rate: 9},
	}
	cmin, cmax, err := medcc.BudgetRange(w, types, medcc.HourlyBilling)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("montage-like workflow: %d modules, %d edges, budgets [%.0f, %.0f]\n\n",
		w.NumModules(), w.NumDependencies(), cmin, cmax)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "budget\talgorithm\tMED (h)\tcost\tVMs after reuse\tcold-start MED")
	for _, frac := range []float64{0.15, 0.5, 1.0} {
		budget := cmin + float64(frac*(cmax-cmin))
		for _, alg := range []string{"critical-greedy", "gain3", "loss1"} {
			res, err := medcc.Solve(w, types, medcc.HourlyBilling, budget, alg)
			if err != nil {
				log.Fatal(err)
			}
			plan, err := medcc.PlanReuse(w, res)
			if err != nil {
				log.Fatal(err)
			}
			// Cold start: 5-minute boots, shared storage at 40
			// data units per hour.
			cold, err := medcc.Simulate(w, res, plan, 5.0/60, 40, 0.002)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(tw, "%.0f\t%s\t%.2f\t%.0f\t%d\t%.2f\n",
				budget, alg, res.MED, res.Cost, plan.NumVMs(), cold.Makespan)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
