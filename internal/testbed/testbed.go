// Package testbed simulates the paper's experimental platform (§VI-C): a
// local Nimbus cloud of one controller node (image repository and shared
// storage) plus VMM nodes where VMs are provisioned on client request.
//
// An execution is one replay of package sim's Replayer with the testbed's
// datacenter mechanics switched on: the VMM nodes are the replay's hosts,
// each with a bounded number of VM slots and FIFO queueing; the image
// propagation from the repository, cached per host, delays a host's first
// placement; VMs boot, transfers pay two hops of the physical star
// topology, and modules share VMs by the paper's precedence-based reuse.
// Results are deterministic.
package testbed

import (
	"errors"
	"fmt"
	"math"

	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// Config sizes the private cloud. Execute rejects NaN or infinite values
// and a negative ImageGB, BootTime or LinkDelay.
type Config struct {
	// VMMs is the number of virtual machine monitor nodes (the paper's
	// testbed had 4 next to one controller).
	VMMs int
	// SlotsPerVMM bounds concurrent VMs per VMM node.
	SlotsPerVMM int
	// ImageGB is the VM image size; the paper's images were 6.8 GB.
	ImageGB float64
	// RepoBandwidthGBps is the repository-to-VMM propagation bandwidth.
	// Zero or negative disables propagation delay.
	RepoBandwidthGBps float64
	// BootTime is the VM startup latency after the image is in place.
	BootTime float64
	// LinkBandwidth and LinkDelay describe the physical star links used
	// for inter-module data transfers (data size units per time unit).
	// Zero or negative bandwidth makes transfers free.
	LinkBandwidth, LinkDelay float64
}

// DefaultConfig mirrors the paper's testbed: 4 VMM nodes behind one
// controller, two VM slots each, 6.8 GB images. Propagation and boot are
// disabled by default because the paper launched VMs in advance ("we can
// always launch the VMs in advance before actually running workflow
// modules"); enable them to study cold-start behaviour.
func DefaultConfig() Config {
	return Config{VMMs: 4, SlotsPerVMM: 2, ImageGB: 6.8}
}

// VMRecord traces one provisioned VM.
type VMRecord struct {
	Type      int
	Host      int // VMM index
	Requested float64
	Placed    float64 // slot acquired
	Ready     float64 // image propagated + booted
	Stopped   float64
	Cost      float64
	Modules   []int
}

// Deployment is the outcome of one testbed execution.
type Deployment struct {
	Makespan float64
	Cost     float64
	VMs      []VMRecord
	Modules  []sim.ModuleTrace
	// QueueWait is the total time VM requests spent waiting for a slot.
	QueueWait float64
}

// validate rejects configurations the event queue cannot run: no slot,
// NaN or infinite numbers anywhere, and negative image size, boot time or
// link delay. Bandwidths <= 0 are valid and mean "free" (see Config).
func (cfg Config) validate() error {
	if cfg.VMMs < 1 || cfg.SlotsPerVMM < 1 {
		return fmt.Errorf("testbed: need at least one VMM with one slot, have %d x %d", cfg.VMMs, cfg.SlotsPerVMM)
	}
	for _, f := range []struct {
		name   string
		v      float64
		nonNeg bool
	}{
		{"ImageGB", cfg.ImageGB, true},
		{"RepoBandwidthGBps", cfg.RepoBandwidthGBps, false},
		{"BootTime", cfg.BootTime, true},
		{"LinkBandwidth", cfg.LinkBandwidth, false},
		{"LinkDelay", cfg.LinkDelay, true},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || (f.nonNeg && f.v < 0) {
			return fmt.Errorf("testbed: invalid %s %v", f.name, f.v)
		}
	}
	return nil
}

// Execute runs the scheduled workflow on the simulated testbed: one
// sim.Replayer run with the VMMs as hosts, the image copy as the delay of
// a host's first placement, and two star-link hops per shared-storage
// transfer. Reuse follows the paper's rule: precedence-adjacent modules
// mapped to the same VM type share one VM. A reused VM keeps its slot
// while it waits for inputs, so a small cloud can stall; Execute reports
// that as an error.
func Execute(cfg Config, w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) (*Deployment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ev, err := w.Evaluate(m, s, nil) // validates s
	if err != nil {
		return nil, err
	}
	image := 0.0
	if cfg.RepoBandwidthGBps > 0 {
		image = cfg.ImageGB / cfg.RepoBandwidthGBps
	}
	// Transfers go through the controller's shared storage ("data
	// transfers are typically performed through a shared storage
	// system"), so each dependency pays two hops of the star topology
	// regardless of where the consumer's VM lands.
	var r sim.Replayer
	res, err := r.Run(sim.Config{
		Workflow: w, Matrices: m, Schedule: s,
		BootTime:  cfg.BootTime,
		Reuse:     w.PlanReuse(s, ev.Timing, workflow.ReuseByPrecedence),
		Bandwidth: cfg.LinkBandwidth, Delay: 2 * cfg.LinkDelay,
		Hosts: cfg.VMMs, SlotsPerHost: cfg.SlotsPerVMM, ImageTime: image,
	})
	var stall *sim.DeadlockError
	if errors.As(err, &stall) {
		return nil, fmt.Errorf("testbed: stalled — %d of %d modules completed (capacity %d slots)",
			stall.Done, stall.Modules, cfg.VMMs*cfg.SlotsPerVMM)
	}
	if err != nil {
		return nil, err
	}
	// The Replayer is this call's own, so its trace buffers become the
	// deployment's.
	dep := &Deployment{
		Makespan: res.Makespan, Cost: res.Cost, Modules: res.Modules, QueueWait: res.QueueWait,
		VMs: make([]VMRecord, len(res.VMs)),
	}
	for v, vm := range res.VMs {
		dep.VMs[v] = VMRecord{
			Type: vm.Type, Host: vm.Host, Requested: vm.RequestedAt, Placed: vm.BootAt,
			Ready: vm.ReadyAt, Stopped: vm.StoppedAt, Cost: vm.Cost, Modules: vm.Modules,
		}
	}
	return dep, nil
}
