// Package medcc is a budget-constrained scientific workflow scheduler for
// IaaS clouds, reproducing "On Scientific Workflow Scheduling in Clouds
// under Budget Constraint" (Lin and Wu, ICPP 2013).
//
// The MED-CC problem maps every module of a DAG-structured workflow to a
// virtual machine type so that the end-to-end delay (makespan) is
// minimized while the total execution cost stays within a user budget.
// The problem is NP-complete and non-approximable; the package provides
// the paper's Critical-Greedy heuristic, the GAIN/LOSS baseline families,
// an exhaustive optimal solver for small instances, an MCKP-based optimal
// oracle for pipeline workflows, a discrete-event cloud simulator, and a
// simulated Nimbus-style testbed.
//
// Quick start:
//
//	w := medcc.NewWorkflow()
//	a := w.AddModule(medcc.Module{Name: "prepare", Workload: 40})
//	b := w.AddModule(medcc.Module{Name: "solve", Workload: 120})
//	_ = w.AddDependency(a, b, 2.5)
//
//	types := medcc.Catalog{
//		{Name: "small", Power: 10, Rate: 1},
//		{Name: "large", Power: 40, Rate: 5},
//	}
//	res, err := medcc.Solve(w, types, medcc.HourlyBilling, 12, "critical-greedy")
//
// See the examples directory for end-to-end programs, and DESIGN.md /
// EXPERIMENTS.md for the mapping from the paper's tables and figures to
// this repository.
package medcc

import (
	"fmt"

	"medcc/internal/adaptive"
	"medcc/internal/cloud"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// Core model types, re-exported from the internal packages so one import
// suffices for typical use.
type (
	// Workflow is a DAG of modules with workloads and data sizes.
	Workflow = workflow.Workflow
	// Module is one computing module (or a fixed entry/exit marker).
	Module = workflow.Module
	// Schedule maps module indices to VM type indices (-1 for fixed).
	Schedule = workflow.Schedule
	// Matrices are the per-module execution time/cost tables.
	Matrices = workflow.Matrices
	// VMType describes one VM type: processing power and price rate.
	VMType = cloud.VMType
	// Catalog is an ordered set of available VM types.
	Catalog = cloud.Catalog
	// BillingPolicy maps raw occupancy to billed duration.
	BillingPolicy = cloud.BillingPolicy
	// ReusePlan assigns scheduled modules to shared VM instances.
	ReusePlan = workflow.ReusePlan
	// WorkflowStats summarizes a workflow's shape (depth, width, CCR);
	// obtained from (*Workflow).ComputeStats.
	WorkflowStats = workflow.Stats
)

// HourlyBilling is the paper's instance-hour model: partial hours round up.
var HourlyBilling = cloud.HourlyRoundUp

// ExactBilling charges exactly the occupied duration.
var ExactBilling BillingPolicy = cloud.Exact{}

// PerSecondBilling rounds occupancy up to whole seconds, the model of the
// paper's WRF testbed experiment (times expressed in seconds).
var PerSecondBilling BillingPolicy = cloud.RoundUp{Unit: 1}

// ErrInfeasible reports a budget below the least-cost schedule's cost.
var ErrInfeasible = sched.ErrInfeasible

// NewWorkflow returns an empty workflow.
func NewWorkflow() *Workflow { return workflow.New() }

// NewPipeline builds a linear pipeline workflow from workloads — the
// MED-CC-Pipeline special case of the paper's complexity analysis.
func NewPipeline(workloads []float64) *Workflow { return workflow.NewPipeline(workloads) }

// Algorithms lists the registered scheduling algorithms, sorted by name.
func Algorithms() []string { return sched.Names() }

// Result is a schedule with its analytic end-to-end delay and cost.
type Result struct {
	// Schedule maps each module to a catalog index.
	Schedule Schedule
	// MED is the minimum end-to-end delay achieved (the makespan).
	MED float64
	// Cost is the total billed execution cost, <= the budget.
	Cost float64
	// Truncated is set when an exact search ("optimal", or SolveDeadline
	// with exact) hit its node limit: Schedule is feasible but not
	// proven optimal.
	Truncated bool
	// Matrices are the time/cost tables the schedule was computed
	// against, reusable for further evaluation or simulation.
	Matrices *Matrices
}

// Solve schedules the workflow over the catalog under the billing policy
// (nil means HourlyBilling) so that cost stays within budget, using the
// named algorithm ("critical-greedy", "gain3", "optimal", ...; see
// Algorithms). It returns ErrInfeasible when budget < the least-cost
// schedule's cost.
func Solve(w *Workflow, types Catalog, billing BillingPolicy, budget float64, algorithm string) (*Result, error) {
	alg, err := sched.Get(algorithm)
	if err != nil {
		return nil, err
	}
	m, err := w.BuildMatrices(types, billing)
	if err != nil {
		return nil, fmt.Errorf("medcc: %w", err)
	}
	res, err := sched.Run(alg, w, m, budget)
	if err != nil {
		return nil, err
	}
	return newResult(res, m), nil
}

// newResult is the facade's copy of a sched result solved against m.
func newResult(res *sched.Result, m *Matrices) *Result {
	return &Result{Schedule: res.Schedule, MED: res.MED, Cost: res.Cost, Truncated: res.Truncated, Matrices: m}
}

// BudgetRange returns [Cmin, Cmax] for the workflow over the catalog: the
// cost of the least-cost schedule (below which no feasible schedule
// exists) and of the fastest schedule (above which budget is wasted).
func BudgetRange(w *Workflow, types Catalog, billing BillingPolicy) (cmin, cmax float64, err error) {
	m, err := w.BuildMatrices(types, billing)
	if err != nil {
		return 0, 0, fmt.Errorf("medcc: %w", err)
	}
	cmin, cmax = m.BudgetRange(w)
	return cmin, cmax, nil
}

// PlanReuse packs the modules of a solved schedule onto shared VM
// instances whenever execution intervals permit, generally provisioning
// fewer VMs than modules (§V-B of the paper).
func PlanReuse(w *Workflow, r *Result) (*ReusePlan, error) {
	ev, err := w.Evaluate(r.Matrices, r.Schedule, nil)
	if err != nil {
		return nil, err
	}
	return w.PlanReuse(r.Schedule, ev.Timing, workflow.ReuseByInterval), nil
}

// SimulationResult is the outcome of a discrete-event replay.
type SimulationResult = sim.Result

// Simulate replays a solved schedule through the discrete-event cloud
// simulator with the given VM boot latency and shared-storage bandwidth
// (bandwidth <= 0 disables transfer delays), optionally using a reuse
// plan (nil provisions one VM per module; a plan that does not fit the
// workflow and r's schedule is an error). With bootTime zero and free
// transfers the simulated makespan and cost equal the analytic ones.
func Simulate(w *Workflow, r *Result, reuse *ReusePlan, bootTime, bandwidth, delay float64) (*SimulationResult, error) {
	return sim.Run(sim.Config{
		Workflow:  w,
		Matrices:  r.Matrices,
		Schedule:  r.Schedule,
		BootTime:  bootTime,
		Reuse:     reuse,
		Bandwidth: bandwidth,
		Delay:     delay,
	})
}

// PaperExample returns the workflow and VM catalog of the paper's §V-B
// numerical example (six modules, three types, budgets in [48, 64]).
func PaperExample() (*Workflow, Catalog) { return workflow.PaperExample() }

// ParetoPoint is one non-dominated (cost, MED) trade-off.
type ParetoPoint = sched.ParetoPoint

// ParetoFront traces the workflow's delay/cost trade-off curve: `points`
// budgets swept across [Cmin, Cmax] with the named algorithm, reduced to
// the non-dominated outcomes in increasing cost order. Use "optimal" for
// an exact front on small instances.
func ParetoFront(w *Workflow, types Catalog, billing BillingPolicy, points int, algorithm string) ([]ParetoPoint, error) {
	alg, err := sched.Get(algorithm)
	if err != nil {
		return nil, err
	}
	m, err := w.BuildMatrices(types, billing)
	if err != nil {
		return nil, fmt.Errorf("medcc: %w", err)
	}
	return sched.ParetoFront(alg, w, m, points)
}

// ErrDeadline reports a deadline below the fastest schedule's makespan.
var ErrDeadline = sched.ErrDeadline

// Adaptive execution types, re-exported from internal/adaptive.
type (
	// AdaptiveConfig describes an execution under runtime uncertainty.
	AdaptiveConfig = adaptive.Config
	// AdaptiveOutcome reports its makespan, actual bill, and overspend.
	AdaptiveOutcome = adaptive.Outcome
)

// UniformNoise builds a runtime perturbation drawing actual duration =
// estimate x U[1-under, 1+over], floored at 0. Any perturbation must
// return a finite, non-negative actual duration.
var UniformNoise = adaptive.Uniform

// RunAdaptive executes a workflow whose actual module durations deviate
// from the estimates the schedule was computed with. With Replan set, the
// unstarted remainder is re-planned after every completion against the
// budget actually left — cutting budget violations at the price of a
// longer makespan (see EXPERIMENTS.md A6). It fails before the run starts
// when the perturbation returns an actual duration that is not a finite,
// non-negative number.
func RunAdaptive(cfg AdaptiveConfig) (*AdaptiveOutcome, error) {
	return adaptive.Run(cfg)
}

// SolveDeadline solves the dual problem: minimize total cost subject to an
// end-to-end deadline. With exact=false it runs the LOSS-style greedy
// (practical at any size); with exact=true it runs branch-and-bound
// (small instances only, like the "optimal" budget algorithm). It returns
// ErrDeadline when the deadline is below the fastest schedule's makespan.
func SolveDeadline(w *Workflow, types Catalog, billing BillingPolicy, deadline float64, exact bool) (*Result, error) {
	m, err := w.BuildMatrices(types, billing)
	if err != nil {
		return nil, fmt.Errorf("medcc: %w", err)
	}
	var res *sched.Result
	if exact {
		res, err = (&sched.Optimal{}).Deadline(w, m, deadline)
	} else {
		res, err = sched.DeadlineLoss(w, m, deadline)
	}
	if err != nil {
		return nil, err
	}
	return newResult(res, m), nil
}
