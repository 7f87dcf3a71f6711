package sim

import (
	"fmt"
	"math"

	"medcc/internal/workflow"
)

// Replayer is the pooled discrete-event engine behind Run: the same
// replay semantics (just-in-time provisioning with boot latency,
// precedence-gated execution, slot-limited shared-storage transfers, VM
// reuse, occupancy billing), restructured so that repeated replays reuse
// every piece of state instead of reallocating it. It mirrors the
// scheduler engine of PR 1 (sched/engine.go): bind once per (workflow,
// matrices) pair, then replay schedule after schedule at zero
// steady-state heap allocations.
//
// Mechanically, events are small typed records (kind + argument) on the
// shared Queue, per-run state lives in preallocated arrays sized to the
// workflow, and the per-VM executed-module lists are spans carved from
// one flat arena. The transfer waiting line is an in-place FIFO ring.
//
// The *Result returned by Run aliases the Replayer's internal buffers: it
// is valid until the next Run call on the same Replayer. Callers that
// need the trace beyond that must copy it (or use the package-level Run,
// which dedicates a Replayer to the call). A Replayer is not safe for
// concurrent use; give each goroutine its own.
//
// medcc:scratch
type Replayer struct {
	// Bound instance key. Versions detect in-place rebuilds of the same
	// pointers by pooled generators (see dag.Graph.Version).
	w          *workflow.Workflow
	m          *workflow.Matrices
	wver, mver uint64

	// Default one-VM-per-module plan for the bound workflow, rebuilt on
	// bind: defMods' inner slices are spans of defModsBuf.
	defVMOf    []int
	defMods    [][]int
	defModsBuf []int

	// q is the event queue; its heap is pooled across runs.
	q Queue

	// Per-run flat state, sized to the workflow / VM plan on each Run.
	times     []float64
	pendingIn []int32
	vmNext    []int32
	vmFree    []bool
	vmModsBuf []int // arena behind res.VMs[v].Modules

	// Transfer slot manager: busy counts in-flight slotted transfers,
	// queue is a FIFO ring of waiting transfers.
	xferBusy int
	xferQ    []xferItem
	xferHead int

	// Per-run config mirror (the fields the event handlers need).
	vmOf      []int
	vmMods    [][]int
	bandwidth float64
	delay     float64
	boot      float64
	slots     int
	done      int

	res Result
}

// Replay event kinds; Event.Arg carries the index named in each comment.
const (
	evReady    uint8 = iota // arg: module whose inputs are all present
	evFinish                // arg: module completing execution
	evBootDone              // arg: VM finishing its boot
	evXferFree              // arg: destination module of an unslotted transfer
	evXferSlot              // arg: destination module of a slot-occupying transfer
)

// xferItem is one transfer waiting for a storage slot.
type xferItem struct {
	dur  float64
	succ int32
}

// bind points the replayer at a (workflow, matrices) pair, rebuilding the
// default VM plan and module-sized state only when the pair (or its
// contents, per version counters) changed since the last call.
//
// medcc:coldpath — (re)binding allocates the plan; steady-state calls take
// the early return.
func (r *Replayer) bind(w *workflow.Workflow, m *workflow.Matrices) {
	if r.w == w && r.m == m &&
		r.wver == w.Graph().Version() && r.mver == m.Epoch() {
		return
	}
	r.w, r.m = w, m
	r.wver, r.mver = w.Graph().Version(), m.Epoch()

	n := w.NumModules()
	r.defVMOf = growInts(r.defVMOf, n)
	r.defModsBuf = growInts(r.defModsBuf, n)
	if cap(r.defMods) < n {
		r.defMods = make([][]int, 0, n)
	}
	r.defMods = r.defMods[:0]
	for i := range r.defVMOf {
		r.defVMOf[i] = -1
	}
	used := 0
	for i := 0; i < n; i++ {
		if w.Module(i).Fixed {
			continue
		}
		r.defVMOf[i] = len(r.defMods)
		span := r.defModsBuf[used : used+1 : used+1]
		span[0] = i
		used++
		r.defMods = append(r.defMods, span)
	}

	r.times = growFloats(r.times, n)
	r.pendingIn = growInt32s(r.pendingIn, n)
	r.res.Modules = growModuleTraces(r.res.Modules, n)
}

// RunInto replays cfg and deep-copies the trace into dst — the batch
// entry point for callers (serving workers, parallel campaigns) that
// must hold a result past this Replayer's next Run.
//
// medcc:allocfree
// medcc:deterministic
func (r *Replayer) RunInto(cfg Config, dst *Result) error {
	res, err := r.Run(cfg)
	if err != nil {
		return err
	}
	dst.CopyFrom(res)
	return nil
}

// Run replays cfg.Schedule on the bound (or newly bound) instance and
// returns its trace. The result is reused: it remains valid only until
// the next Run on this Replayer.
//
// medcc:allocfree
// medcc:deterministic — traces are differential-tested against the
// analytic timing, so the event loop must replay bit-identically
func (r *Replayer) Run(cfg Config) (*Result, error) {
	w, m, s := cfg.Workflow, cfg.Matrices, cfg.Schedule
	if w == nil || m == nil {
		return nil, fmt.Errorf("sim: nil workflow or matrices")
	}
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return nil, err
	}
	if cfg.BootTime < 0 || math.IsNaN(cfg.BootTime) {
		return nil, fmt.Errorf("sim: invalid boot time %v", cfg.BootTime)
	}
	if cfg.Bandwidth > 0 && (math.IsNaN(cfg.Delay) || cfg.Delay < 0) {
		return nil, fmt.Errorf("sim: invalid transfer delay %v", cfg.Delay)
	}
	r.bind(w, m)
	g := w.Graph()
	n := w.NumModules()
	r.times = m.TimesInto(s, r.times)

	if cfg.Reuse != nil {
		r.vmOf = cfg.Reuse.VMOf
		r.vmMods = cfg.Reuse.ModulesOf
	} else {
		r.vmOf = r.defVMOf
		r.vmMods = r.defMods
	}
	nv := len(r.vmMods)

	// Reset traces. Per-VM executed-module lists are spans of one arena
	// with capacity equal to the planned module count, so the appends in
	// tryStart never grow them.
	res := &r.res
	res.Makespan, res.Cost, res.Events = 0, 0, 0
	res.Modules = growModuleTraces(res.Modules, n)
	for i := 0; i < n; i++ {
		res.Modules[i] = ModuleTrace{Ready: -1, Start: -1, Finish: -1, VM: r.vmOf[i]}
	}
	res.VMs = growVMTraces(res.VMs, nv)
	planned := 0
	for v := 0; v < nv; v++ {
		planned += len(r.vmMods[v])
	}
	r.vmModsBuf = growInts(r.vmModsBuf, planned)
	off := 0
	for v := 0; v < nv; v++ {
		k := len(r.vmMods[v])
		res.VMs[v] = VMTrace{
			Type: s[r.vmMods[v][0]], BootAt: -1, ReadyAt: -1, StoppedAt: -1,
			Modules: r.vmModsBuf[off : off : off+k],
		}
		off += k
	}

	r.vmNext = growInt32s(r.vmNext, nv)
	r.vmFree = growBools(r.vmFree, nv)
	for v := 0; v < nv; v++ {
		r.vmNext[v] = 0
		r.vmFree[v] = false
	}
	for i := 0; i < n; i++ {
		r.pendingIn[i] = int32(g.InDegree(i))
	}
	r.q.Reset()
	r.xferBusy = 0
	r.xferQ = r.xferQ[:0]
	r.xferHead = 0
	r.bandwidth, r.delay, r.boot = cfg.Bandwidth, cfg.Delay, cfg.BootTime
	r.slots = cfg.TransferSlots
	r.done = 0

	// Kick off the sources, in module index order like Run always has.
	for i := 0; i < n; i++ {
		if g.InDegree(i) == 0 {
			r.q.Schedule(0, evReady, int32(i))
		}
	}

	for {
		e, ok, err := r.q.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch e.Kind {
		case evReady:
			r.onReady(int(e.Arg))
		case evFinish:
			r.onFinish(int(e.Arg))
		case evBootDone:
			v := int(e.Arg)
			res.VMs[v].ReadyAt = r.q.Now()
			r.vmFree[v] = true
			r.tryStart(v)
		case evXferFree:
			r.arrive(int(e.Arg))
		case evXferSlot:
			r.xferBusy--
			r.arrive(int(e.Arg))
			if r.xferHead < len(r.xferQ) && r.xferBusy < r.slots {
				next := r.xferQ[r.xferHead]
				r.xferHead++
				if r.xferHead == len(r.xferQ) {
					r.xferQ = r.xferQ[:0]
					r.xferHead = 0
				}
				r.startTransfer(next.dur, next.succ)
			}
		}
	}
	if r.done != n {
		return nil, fmt.Errorf("sim: deadlock — %d of %d modules completed", r.done, n)
	}
	res.Events = r.q.Processed()
	return res, nil
}

// onReady fires when all inputs of module i have arrived.
func (r *Replayer) onReady(i int) {
	r.res.Modules[i].Ready = r.q.Now()
	if r.w.Module(i).Fixed {
		// Fixed entry/exit modules run outside any VM.
		r.startModule(i)
		return
	}
	v := r.vmOf[i]
	if r.res.VMs[v].BootAt < 0 {
		// Just-in-time provisioning: first demand boots the VM.
		r.res.VMs[v].BootAt = r.q.Now()
		r.q.Schedule(r.boot, evBootDone, int32(v))
		return
	}
	r.tryStart(v)
}

// startModule begins execution of module i now.
func (r *Replayer) startModule(i int) {
	r.res.Modules[i].Start = r.q.Now()
	r.q.Schedule(r.times[i], evFinish, int32(i))
}

// tryStart dispatches the next planned module on VM v if it is booted,
// idle, and that module's inputs have arrived. Reused VMs run their
// modules in plan order (EST order), which is compatible with precedence
// by construction of the reuse plan.
func (r *Replayer) tryStart(v int) {
	if !r.vmFree[v] || int(r.vmNext[v]) >= len(r.vmMods[v]) {
		return
	}
	i := r.vmMods[v][r.vmNext[v]]
	if r.res.Modules[i].Ready < 0 {
		return // inputs not yet arrived
	}
	r.vmFree[v] = false
	r.vmNext[v]++
	r.res.VMs[v].Modules = append(r.res.VMs[v].Modules, i)
	r.startModule(i)
}

// onFinish handles module i completing execution.
func (r *Replayer) onFinish(i int) {
	res := &r.res
	now := r.q.Now()
	res.Modules[i].Finish = now
	if now > res.Makespan {
		res.Makespan = now
	}
	r.done++
	if !r.w.Module(i).Fixed {
		v := r.vmOf[i]
		r.vmFree[v] = true
		if int(r.vmNext[v]) >= len(r.vmMods[v]) {
			// Last planned module done: terminate and bill.
			res.VMs[v].StoppedAt = now
			occ := now - res.VMs[v].BootAt
			res.VMs[v].Cost = r.m.Billing.BilledTime(occ) * r.m.Catalog[res.VMs[v].Type].Rate
			res.Cost += res.VMs[v].Cost
		} else {
			r.tryStart(v)
		}
	}
	// Output transfers release successors.
	for k, succ := range r.w.Graph().Succ(i) {
		r.startTransfer(r.transferTime(i, k), int32(succ))
	}
}

// transferTime is the shared-storage transfer duration of u's k-th
// outgoing edge (to Graph().Succ(u)[k]).
func (r *Replayer) transferTime(u, k int) float64 {
	if r.bandwidth <= 0 {
		return 0
	}
	ds := r.w.DataSizes(u)[k]
	if ds == 0 {
		return 0
	}
	return ds/r.bandwidth + r.delay
}

// startTransfer begins (or queues) the transfer releasing module succ:
// zero-duration transfers bypass the slot manager; others occupy one of
// TransferSlots (unlimited when 0), queueing FIFO while the storage
// fabric is saturated.
func (r *Replayer) startTransfer(duration float64, succ int32) {
	if duration <= 0 || r.slots <= 0 {
		r.q.Schedule(duration, evXferFree, succ)
		return
	}
	if r.xferBusy >= r.slots {
		r.xferQ = append(r.xferQ, xferItem{dur: duration, succ: succ})
		return
	}
	r.xferBusy++
	r.q.Schedule(duration, evXferSlot, succ)
}

// arrive delivers one input to module succ, releasing it when it was the
// last one outstanding.
func (r *Replayer) arrive(succ int) {
	r.pendingIn[succ]--
	if r.pendingIn[succ] == 0 {
		r.onReady(succ)
	}
}

// --- sized-scratch helpers ---
//
// Each grows its slice to the high-water mark once and reslices afterwards.

// medcc:coldpath — first-use growth.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// medcc:coldpath — first-use growth.
func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// medcc:coldpath — first-use growth.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// medcc:coldpath — first-use growth.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// medcc:coldpath — first-use growth.
func growModuleTraces(s []ModuleTrace, n int) []ModuleTrace {
	if cap(s) < n {
		return make([]ModuleTrace, n)
	}
	return s[:n]
}

// medcc:coldpath — first-use growth.
func growVMTraces(s []VMTrace, n int) []VMTrace {
	if cap(s) < n {
		return make([]VMTrace, n)
	}
	return s[:n]
}
