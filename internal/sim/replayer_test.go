package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

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
