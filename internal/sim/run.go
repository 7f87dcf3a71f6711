// Package sim is a discrete-event cloud workflow simulator — the
// stdlib-only stand-in for CloudSim that the paper extended for its
// evaluation (§VI-A). It replays a schedule event by event: just-in-time
// VM provisioning with boot latency, precedence-gated module execution,
// shared-storage data transfers, VM reuse, and a billing meter. Its
// makespan and billed cost are computed independently of the analytic
// model in package workflow, so agreement between the two validates both
// (DESIGN.md experiment A2). Its event core, Queue, also drives the
// Nimbus-like testbed of package testbed.
package sim

import (
	"medcc/internal/workflow"
)

// Config describes one simulated execution of a scheduled workflow.
type Config struct {
	// Workflow, Matrices and Schedule define what runs where; the
	// schedule must be valid for the matrices' catalog.
	Workflow *workflow.Workflow
	Matrices *workflow.Matrices
	Schedule workflow.Schedule

	// BootTime is the VM startup latency T(I_j), applied between a
	// VM's just-in-time provisioning and its first module start.
	BootTime float64

	// Reuse optionally packs modules onto shared VM instances (from
	// workflow.PlanReuse). Nil provisions one VM per schedulable
	// module, the paper's one-to-one mapping baseline.
	Reuse *workflow.ReusePlan

	// Bandwidth and Delay model shared-storage data transfers: each
	// dependency edge moves DataSize units at Bandwidth plus Delay.
	// Bandwidth <= 0 means transfers are free (intra-datacenter model).
	Bandwidth, Delay float64

	// TransferSlots bounds concurrent data transfers through the
	// shared storage (its ingest channels); 0 means unlimited. Excess
	// transfers queue FIFO, modeling storage contention on wide
	// fan-outs.
	TransferSlots int
}

// ModuleTrace records one module's simulated lifecycle.
type ModuleTrace struct {
	Ready  float64 // all inputs arrived
	Start  float64 // execution began (VM ready and free)
	Finish float64 // execution ended
	VM     int     // VM instance index (-1 for fixed modules)
}

// VMTrace records one VM instance's lifecycle and bill.
type VMTrace struct {
	Type      int     // catalog index
	BootAt    float64 // provisioning request time
	ReadyAt   float64 // boot completed
	StoppedAt float64 // terminated after its last module
	Cost      float64 // billed under the matrices' billing policy
	Modules   []int   // executed modules in order
}

// Result is the outcome of one simulated run.
type Result struct {
	Makespan float64
	Cost     float64
	Modules  []ModuleTrace
	VMs      []VMTrace
	Events   int64
}

// CopyFrom deep-copies src into dst, reusing dst's slices (self-append
// growth to the high-water mark), so steady-state copies of same-shaped
// runs allocate nothing. It is how batch consumers keep a trace past
// the owning Replayer's next Run.
//
// medcc:allocfree
func (dst *Result) CopyFrom(src *Result) {
	dst.Makespan = src.Makespan
	dst.Cost = src.Cost
	dst.Events = src.Events
	dst.Modules = append(dst.Modules[:0], src.Modules...)
	dst.VMs = growVMTraces(dst.VMs, len(src.VMs))
	for i := range src.VMs {
		d, s := &dst.VMs[i], &src.VMs[i]
		d.Type, d.BootAt, d.ReadyAt = s.Type, s.BootAt, s.ReadyAt
		d.StoppedAt, d.Cost = s.StoppedAt, s.Cost
		d.Modules = append(d.Modules[:0], s.Modules...)
	}
}

// Run simulates the configured execution and returns its trace. It is a
// thin compatibility wrapper dedicating a fresh Replayer to the call, so
// the returned Result is owned by the caller; replay loops that care
// about allocation should hold a Replayer instead.
func Run(cfg Config) (*Result, error) {
	var r Replayer
	return r.Run(cfg)
}
