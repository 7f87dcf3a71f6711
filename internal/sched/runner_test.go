package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// runnerNodeCap bounds the exact solver in TestRunnerMatchesRun: the
// m=5 instances finish, the larger ones truncate, so both values of the
// truncated flag are compared.
const runnerNodeCap = 5_000

// TestRunnerMatchesRun pins the pooled solver to the one-shot form. One
// Runner serves every pooled registry algorithm, with one destination
// buffer, over paper-size instances rebuilt in place behind the same
// pointers by one gen.Builder and BuildMatricesInto: two consecutive
// instances of one size share the node count, so only the graph version
// tells them apart. Each solve must return what a fresh Run returns —
// the schedule, the Float64bits of MED and cost, and the truncated flag,
// or the same error. So must a solve given the trail of the staircase
// level at or below its budget: the algorithm's own staircase, built
// with the runner's instance as a serve worker builds it, or gain3's for
// an algorithm that keeps no trails and must ignore it.
func TestRunnerMatchesRun(t *testing.T) {
	var r Runner
	var names []string
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		_, isInto := s.(IntoScheduler)
		alg, err := r.Scheduler(name)
		if (err == nil) != isInto {
			t.Fatalf("Scheduler(%q) = %v, IntoScheduler %v", name, err, isInto)
		}
		if err != nil {
			continue
		}
		if o, ok := alg.(*Optimal); ok {
			o.MaxNodes = runnerNodeCap
		}
		names = append(names, name)
	}
	fresh := func(name string) Scheduler {
		s, _ := Get(name)
		if o, ok := s.(*Optimal); ok {
			o.MaxNodes = runnerNodeCap
		}
		return s
	}

	sizes := gen.PaperProblemSizes()
	var b gen.Builder
	var m *workflow.Matrices
	var dst workflow.Schedule
	rng := rand.New(rand.NewSource(22))
	truncated := map[bool]int{}
	for inst, size := range []gen.ProblemSize{sizes[0], sizes[1], sizes[4], sizes[4], sizes[9], sizes[0]} {
		w, cat, err := b.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = w.BuildMatricesInto(cat, cloud.HourlyRoundUp, m); err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(w)
		stairs := map[string]*Staircase{}
		for _, name := range names {
			alg, _ := r.Scheduler(name)
			if _, ok := alg.(Sweeper); ok {
				if stairs[name], err = SweepGrid(alg, w, m, cmin, cmax, GridOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		budgets := []float64{cmin - 1, cmin, BudgetAt(cmin, cmax, 0.25), BudgetAt(cmin, cmax, rng.Float64()), cmax}
		for _, budget := range budgets {
			for _, name := range names {
				label := fmt.Sprintf("instance %d %v: %s at %v", inst, size, name, budget)
				want, werr := Run(fresh(name), w, m, budget)
				st := stairs[name]
				if st == nil {
					st = stairs["gain3"]
				}
				var tr *Trail
				if k, hit := st.Lookup(budget); hit {
					tr = st.Trails[k]
				} else if k > 0 {
					tr = st.Trails[k-1]
				}
				for _, from := range []*Trail{nil, tr} {
					got, trunc, err := r.Solve(name, dst, w, m, budget, from)
					if werr != nil {
						if err == nil || err.Error() != werr.Error() {
							t.Fatalf("%s (trail %v): error %v, Run's %v", label, from != nil, err, werr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s (trail %v): %v", label, from != nil, err)
					}
					dst = got
					med, err := r.MED(w, m, got)
					if err != nil {
						t.Fatalf("%s (trail %v): MED: %v", label, from != nil, err)
					}
					if !got.Equal(want.Schedule) || trunc != want.Truncated ||
						math.Float64bits(med) != math.Float64bits(want.MED) ||
						math.Float64bits(m.Cost(got)) != math.Float64bits(want.Cost) {
						t.Fatalf("%s (trail %v): got %v MED %v cost %v truncated %v, Run %v MED %v cost %v truncated %v",
							label, from != nil, got, med, m.Cost(got), trunc, want.Schedule, want.MED, want.Cost, want.Truncated)
					}
					truncated[trunc]++
				}
			}
		}
	}
	if truncated[true] == 0 || truncated[false] == 0 {
		t.Fatalf("truncated flags seen: %v, want both values", truncated)
	}
}
