// Package sched implements budget-constrained workflow schedulers for the
// MED-CC problem: the paper's Critical-Greedy heuristic, the GAIN and LOSS
// baseline families of Sakellariou et al., and an exhaustive optimal solver
// with branch-and-bound pruning for small instances.
//
// All schedulers consume a Workflow plus its precomputed execution time /
// cost Matrices and return a Schedule mapping each module to a VM type such
// that the total cost stays within the budget. Makespans are measured with
// zero intra-cloud transfer time, the paper's evaluation setting.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"medcc/internal/workflow"
)

// ErrInfeasible is returned when the budget is below the cost of the
// least-cost schedule, so no feasible schedule exists (Alg. 1, step 4).
var ErrInfeasible = errors.New("sched: budget below minimum feasible cost")

// ErrNoOptions is returned for matrices whose option table was never
// built: the schedulers scan only the dominance-pruned options, so
// matrices filled in by hand need Matrices.BuildOptions before use
// (BuildMatrices calls it).
var ErrNoOptions = errors.New("sched: matrices have no option table; call Matrices.BuildOptions")

// Scheduler produces a budget-feasible schedule for a workflow.
type Scheduler interface {
	// Name identifies the algorithm in reports and the registry.
	Name() string
	// Schedule returns a schedule with Cost <= budget, or an error
	// wrapping ErrInfeasible when budget < Cmin.
	Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error)
}

// Result pairs a schedule with its analytic evaluation.
type Result struct {
	Schedule workflow.Schedule
	MED      float64
	Cost     float64

	// Truncated is set when the scheduler reports (via TruncationReporter)
	// that it stopped early — e.g. the exact solver hit its node limit —
	// so Schedule is feasible but not proven optimal.
	Truncated bool
}

// TruncationReporter is implemented by schedulers that can stop a solve
// early under a work limit and return a feasible but unproven incumbent.
// WasTruncated reports whether the most recent Schedule call did so.
type TruncationReporter interface {
	WasTruncated() bool
}

// Run schedules and evaluates in one step.
func Run(s Scheduler, w *workflow.Workflow, m *workflow.Matrices, budget float64) (*Result, error) {
	sch, err := s.Schedule(w, m, budget)
	if err != nil {
		return nil, err
	}
	ev, err := w.Evaluate(m, sch, nil)
	if err != nil {
		return nil, fmt.Errorf("sched: %s produced invalid schedule: %w", s.Name(), err)
	}
	r := &Result{Schedule: sch, MED: ev.Makespan, Cost: ev.Cost}
	if tr, ok := s.(TruncationReporter); ok {
		r.Truncated = tr.WasTruncated()
	}
	return r, nil
}

// Improvement returns the paper's MED improvement percentage of alg over
// base: (MED_base - MED_alg) / MED_base * 100.
func Improvement(medBase, medAlg float64) float64 {
	if medBase == 0 {
		return 0
	}
	return (medBase - medAlg) / medBase * 100
}

// checkFeasible returns the least-cost schedule and its cost, or
// ErrInfeasible if even that exceeds the budget. It is also where every
// budget-constrained scheduler rejects matrices without an option table
// (ErrNoOptions).
func checkFeasible(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, float64, error) {
	return checkFeasibleInto(w, m, budget, nil)
}

// registry maps algorithm names to constructors so tools can select
// schedulers by flag.
var registry = map[string]func() Scheduler{}

// Register installs a scheduler constructor under its name. It panics on
// duplicates; registration happens at init time.
func Register(name string, f func() Scheduler) {
	if _, dup := registry[name]; dup {
		panic("sched: duplicate registration of " + name)
	}
	registry[name] = f
}

// Get returns a new scheduler by registry name.
func Get(name string) (Scheduler, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown algorithm %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered algorithms, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
