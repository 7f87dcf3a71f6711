// Package testbed simulates the paper's experimental platform (§VI-C): a
// local Nimbus cloud of one controller node (image repository and shared
// storage) plus VMM nodes where VMs are provisioned on client request.
//
// It layers datacenter mechanics that the plain simulator in package sim
// abstracts away: a bounded number of VM slots per VMM node with FIFO
// queueing, VM image propagation from the repository with per-host image
// caching, boot latency, host-to-host transfer times over the physical
// star topology, and the paper's precedence-based VM reuse. Executions run
// on the same discrete-event core, so results are deterministic.
package testbed

import (
	"fmt"
	"math"
	"sort"

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

// Testbed event kinds; sim.Event.Arg carries the index named in each
// comment.
const (
	evModuleReady  uint8 = iota // arg: source module released at time 0
	evModuleFinish              // arg: module completing execution
	evVMReady                   // arg: VM whose image is in place and boot done
	evTransfer                  // arg: destination module of an arriving transfer
)

// execution is the state of one Execute run, advanced by the testbed
// event kinds on a sim.Queue. It lives for one call, so its workflow and
// matrices are that call's inputs, not caches that could go stale.
type execution struct {
	cfg Config
	// medcc:lint-ignore epochguard — per-call input, not a cache.
	w *workflow.Workflow
	// medcc:lint-ignore epochguard — per-call input, not a cache.
	m     *workflow.Matrices
	plan  *workflow.ReusePlan
	times []float64
	dep   *Deployment
	q     sim.Queue

	hostLoad     []int  // occupied slots per VMM
	hostHasImage []bool // per-VMM image cache
	waitQueue    []int  // VM indices awaiting slots, FIFO
	pendingIn    []int  // inputs not yet arrived, per module
	vmNext       []int  // next planned module, per VM
	vmFree       []bool // booted and idle, per VM
	done         int    // modules finished
}

// Execute runs the scheduled workflow on the simulated testbed. Reuse
// follows the paper's rule: precedence-adjacent modules mapped to the same
// VM type share one VM.
func Execute(cfg Config, w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) (*Deployment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return nil, err
	}
	// Capacity check: the peak VM concurrency cannot exceed total slots
	// or placement deadlocks; with FIFO queueing it only stalls, but a
	// workflow wider than the cloud at every instant still completes
	// because slots recycle between modules.
	ev, err := w.Evaluate(m, s, nil)
	if err != nil {
		return nil, err
	}
	plan := w.PlanReuse(s, ev.Timing, workflow.ReuseByPrecedence)

	g := w.Graph()
	n := w.NumModules()
	x := &execution{
		cfg: cfg, w: w, m: m, plan: plan, times: m.Times(s),
		dep: &Deployment{
			Modules: make([]sim.ModuleTrace, n),
			VMs:     make([]VMRecord, plan.NumVMs()),
		},
		hostLoad:     make([]int, cfg.VMMs),
		hostHasImage: make([]bool, cfg.VMMs),
		pendingIn:    make([]int, n),
		vmNext:       make([]int, plan.NumVMs()),
		vmFree:       make([]bool, plan.NumVMs()),
	}
	dep := x.dep
	for v := range dep.VMs {
		dep.VMs[v] = VMRecord{Type: plan.TypeOf[v], Host: -1, Requested: -1, Placed: -1, Ready: -1, Stopped: -1}
	}
	for i := range dep.Modules {
		dep.Modules[i] = sim.ModuleTrace{Ready: -1, Start: -1, Finish: -1, VM: plan.VMOf[i]}
		x.pendingIn[i] = g.InDegree(i)
		if x.pendingIn[i] == 0 {
			x.q.Schedule(0, evModuleReady, int32(i))
		}
	}
	for {
		e, ok, err := x.q.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch a := int(e.Arg); e.Kind {
		case evModuleReady:
			x.onReady(a)
		case evModuleFinish:
			x.onFinish(a)
		case evVMReady:
			dep.VMs[a].Ready = x.q.Now()
			x.vmFree[a] = true
			x.tryStart(a)
		case evTransfer:
			x.pendingIn[a]--
			if x.pendingIn[a] == 0 {
				x.onReady(a)
			}
		}
	}
	if x.done != n {
		return nil, fmt.Errorf("testbed: stalled — %d of %d modules completed (capacity %d slots)",
			x.done, n, cfg.VMMs*cfg.SlotsPerVMM)
	}
	return dep, nil
}

// propagation is the image transfer time to host h: zero once h caches
// the image or when propagation is disabled.
func (x *execution) propagation(h int) float64 {
	if x.cfg.RepoBandwidthGBps <= 0 || x.hostHasImage[h] {
		return 0
	}
	return x.cfg.ImageGB / x.cfg.RepoBandwidthGBps
}

// transfer is the duration of u's k-th outgoing dependency (to
// Graph().Succ(u)[k]). Transfers go through the controller's shared
// storage ("data transfers are typically performed through a shared
// storage system"), so each dependency pays two hops of the star topology
// regardless of where the consumer's VM later lands.
func (x *execution) transfer(u, k int) float64 {
	if x.cfg.LinkBandwidth <= 0 {
		return 0
	}
	ds := x.w.DataSizes(u)[k]
	if ds == 0 {
		return 0
	}
	return ds/x.cfg.LinkBandwidth + 2*x.cfg.LinkDelay
}

// startModule begins execution of module i now.
func (x *execution) startModule(i int) {
	x.dep.Modules[i].Start = x.q.Now()
	x.q.Schedule(x.times[i], evModuleFinish, int32(i))
}

// tryStart dispatches the next planned module on VM v if the VM is ready
// and idle and that module's inputs have arrived.
func (x *execution) tryStart(v int) {
	if !x.vmFree[v] || x.vmNext[v] >= len(x.plan.ModulesOf[v]) {
		return
	}
	i := x.plan.ModulesOf[v][x.vmNext[v]]
	if x.dep.Modules[i].Ready < 0 {
		return
	}
	x.vmFree[v] = false
	x.vmNext[v]++
	x.dep.VMs[v].Modules = append(x.dep.VMs[v].Modules, i)
	x.startModule(i)
}

// placeOrQueue assigns VM v to the least-loaded VMM with a free slot, or
// queues it FIFO when every slot is taken.
func (x *execution) placeOrQueue(v int) {
	best := -1
	for h := 0; h < x.cfg.VMMs; h++ {
		if x.hostLoad[h] >= x.cfg.SlotsPerVMM {
			continue
		}
		if best == -1 || x.hostLoad[h] < x.hostLoad[best] {
			best = h
		}
	}
	if best == -1 {
		x.waitQueue = append(x.waitQueue, v)
		return
	}
	now := x.q.Now()
	x.hostLoad[best]++
	vm := &x.dep.VMs[v]
	vm.Host = best
	vm.Placed = now
	x.dep.QueueWait += now - vm.Requested
	prop := x.propagation(best)
	x.hostHasImage[best] = true
	x.q.Schedule(prop+x.cfg.BootTime, evVMReady, int32(v))
}

// onReady fires when all inputs of module i have arrived.
func (x *execution) onReady(i int) {
	x.dep.Modules[i].Ready = x.q.Now()
	if x.w.Module(i).Fixed {
		x.startModule(i)
		return
	}
	v := x.plan.VMOf[i]
	if x.dep.VMs[v].Requested < 0 {
		x.dep.VMs[v].Requested = x.q.Now()
		x.placeOrQueue(v)
		return
	}
	x.tryStart(v)
}

// onFinish handles module i completing execution.
func (x *execution) onFinish(i int) {
	dep := x.dep
	now := x.q.Now()
	dep.Modules[i].Finish = now
	if now > dep.Makespan {
		dep.Makespan = now
	}
	x.done++
	if !x.w.Module(i).Fixed {
		v := x.plan.VMOf[i]
		x.vmFree[v] = true
		if x.vmNext[v] >= len(x.plan.ModulesOf[v]) {
			// Terminate: bill, free the slot, admit a waiter.
			vm := &dep.VMs[v]
			vm.Stopped = now
			occ := now - vm.Placed
			vm.Cost = x.m.Billing.BilledTime(occ) * x.m.Catalog[vm.Type].Rate
			dep.Cost += vm.Cost
			x.hostLoad[vm.Host]--
			if len(x.waitQueue) > 0 {
				next := x.waitQueue[0]
				x.waitQueue = x.waitQueue[1:]
				x.placeOrQueue(next)
			}
		} else {
			x.tryStart(v)
		}
	}
	for k, succ := range x.w.Graph().Succ(i) {
		x.q.Schedule(x.transfer(i, k), evTransfer, int32(succ))
	}
}

// HostUtilization summarizes how many VMs each VMM hosted over the run.
func (d *Deployment) HostUtilization(vmms int) []int {
	out := make([]int, vmms)
	for _, vm := range d.VMs {
		if vm.Host >= 0 && vm.Host < vmms {
			out[vm.Host]++
		}
	}
	return out
}

// VMsByType counts provisioned VMs per type index, sorted output by type.
func (d *Deployment) VMsByType() map[int]int {
	out := make(map[int]int)
	for _, vm := range d.VMs {
		out[vm.Type]++
	}
	return out
}

// Timeline returns module indices sorted by start time, for reports.
func (d *Deployment) Timeline() []int {
	idx := make([]int, len(d.Modules))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return d.Modules[idx[a]].Start < d.Modules[idx[b]].Start
	})
	return idx
}
