package exper

import (
	"fmt"
	"io"
	"sort"
	"time"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// RuntimeRow reports scheduling wall time per algorithm at one problem
// size, averaged over repetitions.
type RuntimeRow struct {
	Size    gen.ProblemSize
	Seconds map[string]float64
}

// RuntimeScaling measures the wall time of the fast schedulers across the
// paper's problem sizes (A8): the paper argues Critical-Greedy stays
// practical because each iteration costs O(m + |Ew|); this experiment
// shows the measured growth. Timings are averaged over reps runs at the
// mid budget.
func RuntimeScaling(seed int64, algs []string, reps int) ([]RuntimeRow, error) {
	if len(algs) == 0 {
		algs = []string{"critical-greedy", "gain3", "gain3-wrf", "budget-dist"}
	}
	sizes := gen.PaperProblemSizes()
	rows := make([]RuntimeRow, 0, len(sizes))
	for si, size := range sizes {
		w, m, cmin, cmax, err := buildInstance(seed, si, size)
		if err != nil {
			return nil, err
		}
		b := (cmin + cmax) / 2
		row := RuntimeRow{Size: size, Seconds: map[string]float64{}}
		for _, name := range algs {
			alg, err := sched.Get(name)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := alg.Schedule(w, m, b); err != nil {
					return nil, fmt.Errorf("%s at %v: %w", name, size, err)
				}
			}
			row.Seconds[name] = time.Since(start).Seconds() / float64(reps)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// buildInstance generates instance k of a problem size with the campaign's
// deterministic seeding and returns its matrices and budget range.
func buildInstance(seed int64, k int, size gen.ProblemSize) (*workflow.Workflow, *workflow.Matrices, float64, float64, error) {
	w, cat, err := gen.Instance(newRNG(seed, k), size)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	cmin, cmax := m.BudgetRange(w)
	return w, m, cmin, cmax, nil
}

// RenderRuntime prints the A8 timing table in milliseconds.
func RenderRuntime(w io.Writer, algs []string, rows []RuntimeRow) error {
	if len(algs) == 0 && len(rows) > 0 {
		// Column order must not depend on map iteration order: sort the
		// algorithm names so repeated renders agree (found by mapiter).
		for name := range rows[0].Seconds {
			algs = append(algs, name)
		}
		sort.Strings(algs)
	}
	tw := newTab(w)
	fmt.Fprint(tw, "(m, |Ew|, n)")
	for _, a := range algs {
		fmt.Fprintf(tw, "\t%s (ms)", a)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s", r.Size)
		for _, a := range algs {
			fmt.Fprintf(tw, "\t%.3f", r.Seconds[a]*1e3)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
