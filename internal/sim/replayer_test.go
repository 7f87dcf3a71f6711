package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// The closure-per-event queue below (event, eventPQ, Simulation) is the
// engine the simulator ran on before the Replayer, frozen verbatim as the
// engine of referenceRun.

// event is one scheduled callback.
type event struct {
	time float64
	seq  int64 // tie-breaker: FIFO among simultaneous events
	fn   func()
}

type eventPQ []*event

func (q eventPQ) Len() int { return len(q) }

// medcc:floateq-exact — (time, seq) ordering must be bit-exact; epsilon
// would reorder simultaneous events and change traces.
func (q eventPQ) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventPQ) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventPQ) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulation is a virtual clock with an event heap. The zero value is
// ready to use at time 0.
type Simulation struct {
	now       float64
	pq        eventPQ
	seq       int64
	processed int64
}

// Now returns the current virtual time.
func (s *Simulation) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulation) Processed() int64 { return s.processed }

// Schedule enqueues fn after the given non-negative delay.
func (s *Simulation) Schedule(delay float64, fn func()) error {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return fmt.Errorf("sim: invalid delay %v", delay)
	}
	s.seq++
	heap.Push(&s.pq, &event{time: s.now + delay, seq: s.seq, fn: fn})
	return nil
}

// Run processes events until the queue drains, returning the final time.
// maxEvents guards against runaway event loops; 0 means 10 million.
func (s *Simulation) Run(maxEvents int64) (float64, error) {
	if maxEvents == 0 {
		maxEvents = 10_000_000
	}
	for s.pq.Len() > 0 {
		if s.processed >= maxEvents {
			return s.now, fmt.Errorf("sim: event budget %d exhausted at t=%v", maxEvents, s.now)
		}
		e := heap.Pop(&s.pq).(*event)
		if e.time < s.now {
			return s.now, fmt.Errorf("sim: time went backwards: %v -> %v", s.now, e.time)
		}
		s.now = e.time
		s.processed++
		e.fn()
	}
	return s.now, nil
}

// referenceRun is the pre-Replayer implementation of Run, frozen verbatim
// (closure events on the generic Simulation queue, per-run allocation of
// every piece of state). The differential tests below assert that the
// pooled Replayer reproduces its traces, bills, and makespans bit for
// bit; any intended change to replay semantics must update both copies.
func referenceRun(cfg Config) (*Result, error) {
	w, m, s := cfg.Workflow, cfg.Matrices, cfg.Schedule
	if w == nil || m == nil {
		return nil, fmt.Errorf("sim: nil workflow or matrices")
	}
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return nil, err
	}
	if cfg.BootTime < 0 {
		return nil, fmt.Errorf("sim: invalid boot time %v", cfg.BootTime)
	}
	g := w.Graph()
	n := w.NumModules()
	times := m.Times(s)

	var vmOf []int
	var vmMods [][]int
	if cfg.Reuse != nil {
		vmOf = cfg.Reuse.VMOf
		vmMods = cfg.Reuse.ModulesOf
	} else {
		vmOf = make([]int, n)
		for i := range vmOf {
			vmOf[i] = -1
		}
		for _, i := range w.Schedulable() {
			vmOf[i] = len(vmMods)
			vmMods = append(vmMods, []int{i})
		}
	}

	res := &Result{
		Modules: make([]ModuleTrace, n),
		VMs:     make([]VMTrace, len(vmMods)),
	}
	for i := range res.Modules {
		res.Modules[i] = ModuleTrace{Ready: -1, Start: -1, Finish: -1, VM: vmOf[i]}
	}
	for v := range res.VMs {
		first := vmMods[v][0]
		res.VMs[v] = VMTrace{Type: s[first], BootAt: -1, ReadyAt: -1, StoppedAt: -1}
	}

	var sm Simulation
	pendingIn := make([]int, n)
	for i := 0; i < n; i++ {
		pendingIn[i] = g.InDegree(i)
	}
	vmNext := make([]int, len(vmMods))
	vmFree := make([]bool, len(vmMods))
	done := 0

	var onReady func(i int)
	var tryStart func(v int)
	var onFinish func(i int)

	startModule := func(i int) {
		res.Modules[i].Start = sm.Now()
		d := times[i]
		if err := sm.Schedule(d, func() { onFinish(i) }); err != nil {
			panic(err)
		}
	}

	tryStart = func(v int) {
		if !vmFree[v] || vmNext[v] >= len(vmMods[v]) {
			return
		}
		i := vmMods[v][vmNext[v]]
		if res.Modules[i].Ready < 0 {
			return
		}
		vmFree[v] = false
		vmNext[v]++
		res.VMs[v].Modules = append(res.VMs[v].Modules, i)
		startModule(i)
	}

	onReady = func(i int) {
		res.Modules[i].Ready = sm.Now()
		if w.Module(i).Fixed {
			startModule(i)
			return
		}
		v := vmOf[i]
		if res.VMs[v].BootAt < 0 {
			res.VMs[v].BootAt = sm.Now()
			if err := sm.Schedule(cfg.BootTime, func() {
				res.VMs[v].ReadyAt = sm.Now()
				vmFree[v] = true
				tryStart(v)
			}); err != nil {
				panic(err)
			}
			return
		}
		tryStart(v)
	}

	transferTime := func(u, v int) float64 {
		if cfg.Bandwidth <= 0 {
			return 0
		}
		ds := w.DataSize(u, v)
		if ds == 0 {
			return 0
		}
		return ds/cfg.Bandwidth + cfg.Delay
	}

	xferBusy := 0
	var xferQueue []func()
	var startTransfer func(duration float64, done func())
	startTransfer = func(duration float64, done func()) {
		if duration <= 0 || cfg.TransferSlots <= 0 {
			if err := sm.Schedule(duration, done); err != nil {
				panic(err)
			}
			return
		}
		if xferBusy >= cfg.TransferSlots {
			xferQueue = append(xferQueue, func() { startTransfer(duration, done) })
			return
		}
		xferBusy++
		if err := sm.Schedule(duration, func() {
			xferBusy--
			done()
			if len(xferQueue) > 0 && xferBusy < cfg.TransferSlots {
				next := xferQueue[0]
				xferQueue = xferQueue[1:]
				next()
			}
		}); err != nil {
			panic(err)
		}
	}

	onFinish = func(i int) {
		res.Modules[i].Finish = sm.Now()
		if sm.Now() > res.Makespan {
			res.Makespan = sm.Now()
		}
		done++
		if !w.Module(i).Fixed {
			v := vmOf[i]
			vmFree[v] = true
			if vmNext[v] >= len(vmMods[v]) {
				res.VMs[v].StoppedAt = sm.Now()
				occ := sm.Now() - res.VMs[v].BootAt
				res.VMs[v].Cost = m.Billing.BilledTime(occ) * m.Catalog[res.VMs[v].Type].Rate
				res.Cost += res.VMs[v].Cost
			} else {
				tryStart(v)
			}
		}
		for _, succ := range g.Succ(i) {
			succ := succ
			startTransfer(transferTime(i, succ), func() {
				pendingIn[succ]--
				if pendingIn[succ] == 0 {
					onReady(succ)
				}
			})
		}
	}

	for i := 0; i < n; i++ {
		if g.InDegree(i) == 0 {
			i := i
			if err := sm.Schedule(0, func() { onReady(i) }); err != nil {
				return nil, err
			}
		}
	}
	if _, err := sm.Run(0); err != nil {
		return nil, err
	}
	if done != n {
		return nil, fmt.Errorf("sim: deadlock — %d of %d modules completed", done, n)
	}
	res.Events = sm.Processed()
	return res, nil
}

// assertResultsIdentical compares two results field by field with exact
// (bitwise) float equality — the engines must agree to the last bit, not
// within a tolerance.
func assertResultsIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %v != %v", label, got.Makespan, want.Makespan)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %v != %v", label, got.Cost, want.Cost)
	}
	if got.Events != want.Events {
		t.Fatalf("%s: events %d != %d", label, got.Events, want.Events)
	}
	if !reflect.DeepEqual(got.Modules, want.Modules) {
		t.Fatalf("%s: module traces differ\ngot  %+v\nwant %+v", label, got.Modules, want.Modules)
	}
	if len(got.VMs) != len(want.VMs) {
		t.Fatalf("%s: %d VMs != %d", label, len(got.VMs), len(want.VMs))
	}
	for v := range got.VMs {
		gv, wv := got.VMs[v], want.VMs[v]
		// Modules is an arena span on the pooled side and a fresh slice on
		// the reference side: compare contents, then the scalar fields.
		if len(gv.Modules) != len(wv.Modules) {
			t.Fatalf("%s: VM %d ran %d modules, want %d", label, v, len(gv.Modules), len(wv.Modules))
		}
		for k := range gv.Modules {
			if gv.Modules[k] != wv.Modules[k] {
				t.Fatalf("%s: VM %d module order %v != %v", label, v, gv.Modules, wv.Modules)
			}
		}
		gv.Modules, wv.Modules = nil, nil
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: VM %d trace %+v != %+v", label, v, gv, wv)
		}
	}
}

// differentialConfigs builds a spread of heterogeneous replay configs —
// boot latencies, transfer models, slot limits, reuse plans — over one
// scheduled instance.
func differentialConfigs(t testing.TB, rng *rand.Rand, size gen.ProblemSize) []Config {
	t.Helper()
	w, cat, err := gen.Instance(rng, size)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, cmin+rng.Float64()*(cmax-cmin))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := w.Evaluate(m, res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := w.PlanReuse(res.Schedule, ev.Timing, workflow.ReuseByInterval)
	base := Config{Workflow: w, Matrices: m, Schedule: res.Schedule}
	variants := []Config{
		base,
		{BootTime: 0.1},
		{BootTime: 2.5},
		{Bandwidth: 50, Delay: 0.001},
		{Bandwidth: 1, Delay: 0.1, BootTime: 0.25},
		{Bandwidth: 10, TransferSlots: 1},
		{Bandwidth: 10, TransferSlots: 2, Delay: 0.01},
		{Bandwidth: 10, TransferSlots: 7, BootTime: 0.5},
		{BootTime: 0.1, Reuse: plan},
		{Bandwidth: 25, Delay: 0.002, TransferSlots: 3, BootTime: 1, Reuse: plan},
	}
	out := make([]Config, len(variants))
	for i, v := range variants {
		v.Workflow, v.Matrices, v.Schedule = w, m, res.Schedule
		out[i] = v
	}
	return out
}

// TestReplayerMatchesReferenceBitIdentical is the tentpole's correctness
// lock: across the paper's problem sizes and a spread of boot / transfer
// / slot / reuse settings, one pooled Replayer reused for every config
// must produce traces, bills, and makespans bit-identical to the frozen
// pre-refactor implementation.
func TestReplayerMatchesReferenceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var r Replayer
	for _, size := range gen.PaperProblemSizes() {
		for _, cfg := range differentialConfigs(t, rng, size) {
			label := fmt.Sprintf("size %v boot=%v bw=%v slots=%d reuse=%v",
				size, cfg.BootTime, cfg.Bandwidth, cfg.TransferSlots, cfg.Reuse != nil)
			want, err := referenceRun(cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s: replayer: %v", label, err)
			}
			assertResultsIdentical(t, label, got, want)
		}
	}
}

// TestRunIntoCopies checks the batch entry point: RunInto's deep copy
// matches the pooled result bit for bit and survives the Replayer being
// reused for a different config afterwards.
func TestRunIntoCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfgs := differentialConfigs(t, rng, gen.ProblemSize{M: 25, E: 201, N: 5})
	var r Replayer
	var dst Result
	for i, cfg := range cfgs {
		want, err := referenceRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RunInto(cfg, &dst); err != nil {
			t.Fatal(err)
		}
		// Clobber the replayer's pooled result with the next config
		// before checking: the copy must be independent of it.
		if _, err := r.Run(cfgs[(i+1)%len(cfgs)]); err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, fmt.Sprintf("runinto %d", i), &dst, want)
	}
}

// TestRunMatchesReference locks the compatibility wrapper itself.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range differentialConfigs(t, rng, gen.ProblemSize{M: 25, E: 201, N: 5}) {
		want, err := referenceRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, "wrapper", got, want)
	}
}

// TestReplayerReusedAcross50HeterogeneousConfigs is the satellite
// property test: a single Replayer cycled through 50 configs of varying
// workflows, catalogs, boot times, and TransferSlots settings must match
// a fresh sim.Run on every one — no state may leak between runs.
func TestReplayerReusedAcross50HeterogeneousConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var r Replayer
	for trial := 0; trial < 50; trial++ {
		size := gen.ProblemSize{
			M: 5 + rng.Intn(30),
			E: 0,
			N: 2 + rng.Intn(6),
		}
		maxE := size.M * (size.M - 1) / 2
		size.E = rng.Intn(maxE + 1)
		cfgs := differentialConfigs(t, rng, size)
		cfg := cfgs[rng.Intn(len(cfgs))]
		// Edge cases: exercise zero boot and a slot count of 1 often.
		switch trial % 5 {
		case 0:
			cfg.BootTime = 0
		case 1:
			cfg.Bandwidth, cfg.TransferSlots = 5, 1
		}
		want, err := Run(cfg) // fresh engine every call
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		got, err := r.Run(cfg) // pooled engine, reused across all trials
		if err != nil {
			t.Fatalf("trial %d: pooled: %v", trial, err)
		}
		assertResultsIdentical(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

// TestReplayersShareConfigConcurrently is the -race test for read-only
// replay inputs: several goroutines, each with its own Replayer, replay
// configs sharing one workflow, matrices, and schedule at the same time.
// Replay must treat the shared inputs as read-only, so the race detector
// stays quiet and every goroutine gets the reference results.
func TestReplayersShareConfigConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfgs := differentialConfigs(t, rng, gen.ProblemSize{M: 40, E: 434, N: 6})
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var r Replayer
			for i, cfg := range cfgs {
				got, err := r.Run(cfg)
				if err != nil {
					errs[c] = err
					return
				}
				if got.Makespan != want[i].Makespan || got.Cost != want[i].Cost || got.Events != want[i].Events {
					errs[c] = fmt.Errorf("caller %d config %d: {%v %v %v} != {%v %v %v}", c, i,
						got.Makespan, got.Cost, got.Events, want[i].Makespan, want[i].Cost, want[i].Events)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// hostConfig places a sparse random instance, wide enough for its VMs to
// queue, on hosts: Critical-Greedy at mid budget, an interval reuse plan,
// boot, image copies and slotted transfers on a 2x2-slot cloud.
func hostConfig(t testing.TB, rng *rand.Rand) Config {
	t.Helper()
	w, cat, err := gen.Instance(rng, gen.ProblemSize{M: 40, E: 60, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, (cmin+cmax)/2)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := w.Evaluate(m, res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workflow: w, Matrices: m, Schedule: res.Schedule, BootTime: 0.5,
		Reuse:     w.PlanReuse(res.Schedule, ev.Timing, workflow.ReuseByInterval),
		Bandwidth: 25, Delay: 0.002, TransferSlots: 3,
		Hosts: 2, SlotsPerHost: 2, ImageTime: 0.75,
	}
}

// TestReplayerRunAllocFree pins the steady-state contract: once a
// Replayer has grown its pools on a config, replaying it allocates
// nothing — with boot latency, slotted transfers and a reuse plan, so
// every event kind and the transfer FIFO are on the measured path, and
// on hosts whose slots VMs queue for.
func TestReplayerRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(5))
	cfgs := differentialConfigs(t, rng, gen.ProblemSize{M: 40, E: 434, N: 6})
	hosts := hostConfig(t, rng)
	var r Replayer
	if res, err := r.Run(hosts); err != nil {
		t.Fatal(err)
	} else if res.QueueWait <= 0 {
		t.Fatal("no VM queued on the host config")
	}
	for _, cfg := range []Config{cfgs[0], cfgs[9], hosts} {
		if _, err := r.Run(cfg); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := r.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("Replayer.Run allocates %v per run (slots=%d reuse=%v hosts=%d)", avg, cfg.TransferSlots, cfg.Reuse != nil, cfg.Hosts)
		}
	}
}

// requireSameBits compares two results in Float64bits on every time,
// bill and the queue wait, and exactly on events, hosts, types and
// module lists.
func requireSameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Makespan, want.Makespan) || !same(got.Cost, want.Cost) || !same(got.QueueWait, want.QueueWait) || got.Events != want.Events {
		t.Fatalf("%s: makespan/cost/wait/events {%v %v %v %d} != {%v %v %v %d}", label,
			got.Makespan, got.Cost, got.QueueWait, got.Events, want.Makespan, want.Cost, want.QueueWait, want.Events)
	}
	if len(got.Modules) != len(want.Modules) || len(got.VMs) != len(want.VMs) {
		t.Fatalf("%s: %d modules / %d VMs, want %d / %d", label, len(got.Modules), len(got.VMs), len(want.Modules), len(want.VMs))
	}
	for i, g := range got.Modules {
		w := want.Modules[i]
		if !same(g.Ready, w.Ready) || !same(g.Start, w.Start) || !same(g.Finish, w.Finish) || g.VM != w.VM {
			t.Fatalf("%s: module %d trace %+v != %+v", label, i, g, w)
		}
	}
	for v, g := range got.VMs {
		w := want.VMs[v]
		if g.Type != w.Type || g.Host != w.Host || !same(g.RequestedAt, w.RequestedAt) || !same(g.BootAt, w.BootAt) ||
			!same(g.ReadyAt, w.ReadyAt) || !same(g.StoppedAt, w.StoppedAt) || !same(g.Cost, w.Cost) || !slices.Equal(g.Modules, w.Modules) {
			t.Fatalf("%s: VM %d trace %+v != %+v", label, v, g, w)
		}
	}
}

// TestPooledReplayerHostsMatchFresh drives one pooled Replayer through
// host-free and host configs in turn on random instances, sparse enough
// for VMs to queue, with and without reuse plans, image copies and
// boots, on clouds small enough to stall. Host state (slot loads, image
// flags, the waiting line) lives on the Replayer between runs, so every
// run must reset it: each trace must equal a fresh Replayer's in
// Float64bits, the queue wait included, and each error its error.
func TestPooledReplayerHostsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var r Replayer
	var runs, queued, imaged, stalled int
	for trial := 0; trial < 40; trial++ {
		size := gen.ProblemSize{M: 5 + rng.Intn(40), N: 2 + rng.Intn(5)}
		size.E = rng.Intn(2*size.M + 1)
		cfgs := differentialConfigs(t, rng, size)
		ev, err := cfgs[0].Workflow.Evaluate(cfgs[0].Matrices, cfgs[0].Schedule, nil)
		if err != nil {
			t.Fatal(err)
		}
		precedence := cfgs[0].Workflow.PlanReuse(cfgs[0].Schedule, ev.Timing, workflow.ReuseByPrecedence)
		for k := 0; k < 4; k++ {
			cfg := cfgs[rng.Intn(len(cfgs))]
			if k%2 == 1 {
				cfg.Hosts, cfg.SlotsPerHost = 1+rng.Intn(3), 1+rng.Intn(2)
				if rng.Intn(4) > 0 {
					cfg.ImageTime = rng.Float64()
				}
				if rng.Intn(3) > 0 {
					cfg.Reuse = precedence
				}
			}
			label := fmt.Sprintf("trial %d run %d %v hosts %dx%d image %v boot %v reuse %v",
				trial, k, size, cfg.Hosts, cfg.SlotsPerHost, cfg.ImageTime, cfg.BootTime, cfg.Reuse != nil)
			runs++
			want, werr := Run(cfg)
			got, gerr := r.Run(cfg)
			if werr != nil || gerr != nil {
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("%s: error %v, fresh %v", label, gerr, werr)
				}
				stalled++
				continue
			}
			requireSameBits(t, label, got, want)
			if got.QueueWait > 0 {
				queued++
			}
			if cfg.Hosts > 0 && cfg.ImageTime > 0 {
				imaged++
			}
		}
	}
	t.Logf("%d runs: %d queued, %d with image copies, %d stalled", runs, queued, imaged, stalled)
	if queued == 0 || imaged == 0 || stalled == 0 {
		t.Fatalf("differential missed a regime: queued=%d imaged=%d stalled=%d", queued, imaged, stalled)
	}
}

// TestReplayerRejectsBadHosts: host settings a replay cannot run are
// errors; ImageTime is ignored without hosts.
func TestReplayerRejectsBadHosts(t *testing.T) {
	cfg, _ := paperConfig(t, 57)
	for _, h := range [][3]float64{{-1, 1, 0}, {1, 0, 0}, {2, -1, 0}, {1, 1, -1}, {1, 1, math.NaN()}} {
		c := cfg
		c.Hosts, c.SlotsPerHost, c.ImageTime = int(h[0]), int(h[1]), h[2]
		if _, err := Run(c); err == nil {
			t.Errorf("hosts %v x %v, image time %v: accepted", h[0], h[1], h[2])
		}
	}
	cfg.ImageTime = math.NaN()
	if _, err := Run(cfg); err != nil {
		t.Errorf("image time without hosts: %v", err)
	}
}

// TestReplayerRejectsForeignPlans holds Run to the reuse plan's contract:
// a plan that does not fit the workflow and schedule is an error, never
// a panic or a silent replay of other types.
func TestReplayerRejectsForeignPlans(t *testing.T) {
	cfg, _ := paperConfig(t, 57)
	w, s := cfg.Workflow, cfg.Schedule
	planOf := func(w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) *workflow.ReusePlan {
		ev, err := w.Evaluate(m, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w.PlanReuse(s, ev.Timing, workflow.ReuseByInterval)
	}
	own := planOf(w, cfg.Matrices, s)
	cfg.Reuse = own
	if _, err := Run(cfg); err != nil {
		t.Fatalf("own plan rejected: %v", err)
	}
	// A copy of the schedule's own plan with one defect each.
	edit := func(f func(p *workflow.ReusePlan)) *workflow.ReusePlan {
		p := &workflow.ReusePlan{VMOf: slices.Clone(own.VMOf), TypeOf: slices.Clone(own.TypeOf)}
		for _, mods := range own.ModulesOf {
			p.ModulesOf = append(p.ModulesOf, slices.Clone(mods))
		}
		f(p)
		return p
	}
	// first is the first module of the VM that runs the most.
	most := 0
	for v, mods := range own.ModulesOf {
		if len(mods) > len(own.ModulesOf[most]) {
			most = v
		}
	}
	first := own.ModulesOf[most][0]
	pipeline := workflow.New()
	a := pipeline.AddModule(workflow.Module{Name: "a", Workload: 10})
	b := pipeline.AddModule(workflow.Module{Name: "b", Workload: 10})
	if err := pipeline.AddDependency(a, b, 1); err != nil {
		t.Fatal(err)
	}
	pm, err := pipeline.BuildMatrices(cfg.Matrices.Catalog, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cheap, _ := paperConfig(t, 48)
	fast, _ := paperConfig(t, 64)
	for _, tc := range []struct {
		name string
		cfg  Config
		plan *workflow.ReusePlan
	}{
		{"2-module pipeline's plan", cfg, planOf(pipeline, pm, pm.LeastCost(pipeline))},
		{"budget-48 plan at budget 64", fast, planOf(cheap.Workflow, cheap.Matrices, cheap.Schedule)},
		{"VMOf short", cfg, edit(func(p *workflow.ReusePlan) { p.VMOf = p.VMOf[:len(p.VMOf)-1] })},
		{"TypeOf short", cfg, edit(func(p *workflow.ReusePlan) { p.TypeOf = p.TypeOf[1:] })},
		{"fixed module on a VM", cfg, edit(func(p *workflow.ReusePlan) { p.VMOf[0] = 0 })},
		{"schedulable module on no VM", cfg, edit(func(p *workflow.ReusePlan) { p.VMOf[first] = -1 })},
		{"VMOf past the VMs", cfg, edit(func(p *workflow.ReusePlan) { p.VMOf[first] = len(p.TypeOf) })},
		{"module listed on another VM", cfg, edit(func(p *workflow.ReusePlan) {
			v := p.VMOf[first]
			p.ModulesOf[v] = slices.DeleteFunc(p.ModulesOf[v], func(i int) bool { return i == first })
			u := (v + 1) % len(p.ModulesOf)
			p.ModulesOf[u] = append(p.ModulesOf[u], first)
		})},
		{"module listed twice", cfg, edit(func(p *workflow.ReusePlan) {
			v := p.VMOf[first]
			p.ModulesOf[v] = append(p.ModulesOf[v], first)
		})},
		{"module listed nowhere", cfg, edit(func(p *workflow.ReusePlan) {
			v := p.VMOf[first]
			p.ModulesOf[v] = slices.DeleteFunc(p.ModulesOf[v], func(i int) bool { return i == first })
		})},
		{"module index out of range", cfg, edit(func(p *workflow.ReusePlan) { p.ModulesOf[0] = append(p.ModulesOf[0], len(p.VMOf)) })},
		{"VM without modules", cfg, edit(func(p *workflow.ReusePlan) {
			p.TypeOf = append(p.TypeOf, 0)
			p.ModulesOf = append(p.ModulesOf, nil)
		})},
		{"VM of another type", cfg, edit(func(p *workflow.ReusePlan) {
			v := p.VMOf[first]
			p.TypeOf[v] = (p.TypeOf[v] + 1) % len(cfg.Matrices.Catalog)
		})},
	} {
		c := tc.cfg
		c.Reuse = tc.plan
		if _, err := Run(c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// BenchmarkReplayerSteadyState measures the pooled engine on the
// 100-module flagship instance; allocs/op must read 0.
func BenchmarkReplayerSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, cat, err := gen.Instance(rng, gen.ProblemSize{M: 100, E: 2344, N: 9})
	if err != nil {
		b.Fatal(err)
	}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		b.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, (cmin+cmax)/2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Workflow: w, Matrices: m, Schedule: res.Schedule, Bandwidth: 50, Delay: 0.001, BootTime: 0.1}
	var r Replayer
	if _, err := r.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
