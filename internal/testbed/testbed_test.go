package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/workflow"
	"medcc/internal/wrf"
)

func wrfSetup(t *testing.T, budget float64) (*workflow.Workflow, *workflow.Matrices, workflow.Schedule) {
	t.Helper()
	w := wrf.Grouped()
	m := wrf.Matrices(w)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	return w, m, res.Schedule
}

func TestExecuteWRFMatchesAnalyticWhenWarm(t *testing.T) {
	// With pre-launched VMs (no boot, no propagation, free transfers)
	// the testbed must reproduce the analytic MED exactly — the setting
	// of the paper's Table VII measurements.
	w, m, s := wrfSetup(t, 155.0)
	dep, err := Execute(DefaultConfig(), w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := w.Evaluate(m, s, nil)
	if math.Abs(dep.Makespan-ev.Makespan) > 1e-9 {
		t.Fatalf("testbed makespan %v vs analytic %v", dep.Makespan, ev.Makespan)
	}
}

func TestExecuteWRFReuseLowersVMCountAndCost(t *testing.T) {
	w, m, s := wrfSetup(t, 147.5)
	dep, err := Execute(DefaultConfig(), w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule at B=147.5 maps w1..w4,w6 to VT1 and w5 to VT2; the
	// paper notes w1/w3 and w2/w4/w6 chains reuse VMs. At most 6 VMs,
	// expect strictly fewer via precedence reuse.
	if len(dep.VMs) >= 6 {
		t.Fatalf("no reuse: %d VMs", len(dep.VMs))
	}
	// Merged occupancy bills less than the sum of per-module costs.
	analytic := m.Cost(s)
	if dep.Cost > analytic+1e-9 {
		t.Fatalf("testbed cost %v above analytic %v", dep.Cost, analytic)
	}
	if dep.Cost <= 0 {
		t.Fatal("testbed billed nothing")
	}
}

func TestExecuteRespectsSlotLimits(t *testing.T) {
	// A 10-branch fork-join on a 4x2-slot cloud: placement queueing
	// must serialize the excess VMs, stretching the makespan, while
	// every host stays within its slot bound at all times.
	rng := rand.New(rand.NewSource(1))
	w := gen.ForkJoin(rng, 10, 100, 100)
	cat := cloud.DiminishingCatalog(2, 3, 1, 0.75)
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	s := m.LeastCost(w)
	cfg := DefaultConfig()
	dep, err := Execute(cfg, w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	// 10 identical branches, 8 slots: two branches wait a full round.
	branchTime := 100.0 / 3
	if dep.Makespan < 2*branchTime-1e-9 {
		t.Fatalf("makespan %v too small for queued execution", dep.Makespan)
	}
	if dep.QueueWait <= 0 {
		t.Fatal("no queue wait recorded despite oversubscription")
	}
	for h, c := range dep.HostUtilization(cfg.VMMs) {
		if c == 0 {
			t.Fatalf("host %d unused while others queued", h)
		}
	}
}

func TestExecuteColdStartDelays(t *testing.T) {
	w, m, s := wrfSetup(t, 155.0)
	warm, err := Execute(DefaultConfig(), w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BootTime = 30
	cfg.RepoBandwidthGBps = 0.1 // 68s propagation per cold host
	cold, err := Execute(cfg, w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Makespan <= warm.Makespan {
		t.Fatalf("cold start did not delay: %v vs %v", cold.Makespan, warm.Makespan)
	}
	for _, vm := range cold.VMs {
		if vm.Ready < vm.Placed+30-1e-9 {
			t.Fatalf("VM became ready before booting: %+v", vm)
		}
	}
}

func TestExecuteImageCachePropagatesOncePerHost(t *testing.T) {
	// Two sequential same-host VMs: the second must skip propagation.
	w := workflow.New()
	a := w.AddModule(workflow.Module{Name: "a", Workload: 10})
	b := w.AddModule(workflow.Module{Name: "b", Workload: 10})
	if err := w.AddDependency(a, b, 0); err != nil {
		t.Fatal(err)
	}
	cat := cloud.Catalog{{Name: "x", Power: 10, Rate: 1}, {Name: "y", Power: 20, Rate: 2}}
	m, _ := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	s := workflow.Schedule{0, 1} // different types: no reuse, two VMs
	cfg := Config{VMMs: 1, SlotsPerVMM: 2, ImageGB: 7, RepoBandwidthGBps: 1}
	dep, err := Execute(cfg, w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	first := dep.VMs[0]
	second := dep.VMs[1]
	if second.Placed < first.Placed {
		first, second = second, first
	}
	if math.Abs(first.Ready-first.Placed-7) > 1e-9 {
		t.Fatalf("first VM propagation = %v, want 7", first.Ready-first.Placed)
	}
	if second.Ready-second.Placed > 1e-9 {
		t.Fatalf("second VM re-propagated: %v", second.Ready-second.Placed)
	}
}

func TestExecuteTransfersThroughSharedStorage(t *testing.T) {
	// Every data-bearing dependency pays a shared-storage transfer of
	// DS/BW + 2*delay, independent of VM placement.
	w := workflow.New()
	a := w.AddModule(workflow.Module{Name: "a", Workload: 10})
	b := w.AddModule(workflow.Module{Name: "b", Workload: 10})
	if err := w.AddDependency(a, b, 100); err != nil {
		t.Fatal(err)
	}
	cat := cloud.Catalog{{Name: "x", Power: 10, Rate: 1}, {Name: "y", Power: 20, Rate: 2}}
	m, _ := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	s := workflow.Schedule{0, 1}
	cfg := Config{VMMs: 2, SlotsPerVMM: 1, LinkBandwidth: 10, LinkDelay: 0.05}
	dep, err := Execute(cfg, w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	// a: 1h; transfer: 100/10 + 2*0.05 = 10.1; b: 0.5h.
	want := 1 + 10.1 + 0.5
	if math.Abs(dep.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %v, want %v", dep.Makespan, want)
	}
}

func TestExecuteDetectsCapacityDeadlock(t *testing.T) {
	// Reused VMs can hold slots while waiting for inputs from queued
	// VMs; with capacity 1x1 a diamond workflow with cross-VM
	// dependencies stalls, and Execute must report it instead of
	// silently dropping modules.
	rng := rand.New(rand.NewSource(2))
	w := gen.ForkJoin(rng, 5, 50, 50)
	cat := cloud.DiminishingCatalog(2, 3, 1, 0.75)
	m, _ := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	s := m.LeastCost(w)
	cfg := Config{VMMs: 1, SlotsPerVMM: 1}
	dep, err := Execute(cfg, w, m, s)
	// Either it completes serially (fork-join branches are
	// independent, so a single slot CAN recycle) — or, if the reuse
	// plan splits them across VMs awaiting each other, it errors.
	if err == nil {
		if dep.Makespan <= 0 {
			t.Fatal("suspicious zero makespan")
		}
		return
	}
	t.Logf("stall reported as expected: %v", err)
}

func TestExecuteRejectsBadConfig(t *testing.T) {
	w, m, s := wrfSetup(t, 155.0)
	if _, err := Execute(Config{VMMs: 0, SlotsPerVMM: 1}, w, m, s); err == nil {
		t.Fatal("zero VMMs accepted")
	}
	if _, err := Execute(DefaultConfig(), w, m, workflow.Schedule{1}); err == nil {
		t.Fatal("bad schedule accepted")
	}
}

func TestDeploymentHelpers(t *testing.T) {
	w, m, s := wrfSetup(t, 186.2)
	dep, err := Execute(DefaultConfig(), w, m, s)
	if err != nil {
		t.Fatal(err)
	}
	byType := dep.VMsByType()
	total := 0
	for _, c := range byType {
		total += c
	}
	if total != len(dep.VMs) {
		t.Fatalf("VMsByType total %d != %d VMs", total, len(dep.VMs))
	}
	tl := dep.Timeline()
	if len(tl) != w.NumModules() {
		t.Fatalf("timeline covers %d modules", len(tl))
	}
	for k := 1; k < len(tl); k++ {
		if dep.Modules[tl[k-1]].Start > dep.Modules[tl[k]].Start {
			t.Fatal("timeline not sorted by start")
		}
	}
}

func TestExecuteRejectsInvalidConfig(t *testing.T) {
	w, m, s := wrfSetup(t, 155.0)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"ImageGB NaN", func(c *Config) { c.ImageGB = nan }},
		{"ImageGB Inf", func(c *Config) { c.ImageGB = inf }},
		{"ImageGB negative", func(c *Config) { c.ImageGB = -1 }},
		{"RepoBandwidthGBps NaN", func(c *Config) { c.RepoBandwidthGBps = nan }},
		{"RepoBandwidthGBps Inf", func(c *Config) { c.RepoBandwidthGBps = inf }},
		{"RepoBandwidthGBps -Inf", func(c *Config) { c.RepoBandwidthGBps = -inf }},
		{"BootTime NaN", func(c *Config) { c.BootTime = nan }},
		{"BootTime Inf", func(c *Config) { c.BootTime = inf }},
		{"BootTime negative", func(c *Config) { c.BootTime = -1 }},
		{"LinkBandwidth NaN", func(c *Config) { c.LinkBandwidth = nan }},
		{"LinkBandwidth Inf", func(c *Config) { c.LinkBandwidth = inf }},
		{"LinkDelay NaN", func(c *Config) { c.LinkDelay = nan }},
		{"LinkDelay Inf", func(c *Config) { c.LinkDelay = inf }},
		{"LinkDelay negative", func(c *Config) { c.LinkDelay = -0.5 }},
	} {
		cfg := DefaultConfig()
		tc.tweak(&cfg)
		if _, err := Execute(cfg, w, m, s); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.HasPrefix(err.Error(), "testbed: invalid ") {
			t.Errorf("%s: error %q, want a config error", tc.name, err)
		}
	}
	// Finite numbers whose image propagation time overflows pass the
	// check; the event queue then fails the run with an error, not a
	// panic.
	cfg := Config{VMMs: 1, SlotsPerVMM: 1, ImageGB: 1e308, RepoBandwidthGBps: 1e-308}
	if _, err := Execute(cfg, w, m, s); err == nil || !strings.Contains(err.Error(), "invalid delay") {
		t.Errorf("overflowing propagation: error %v, want an invalid-delay error", err)
	}
	// Bandwidths <= 0 mean "free", not invalid.
	for _, bw := range []float64{0, -2} {
		cfg := DefaultConfig()
		cfg.RepoBandwidthGBps, cfg.LinkBandwidth, cfg.LinkDelay = bw, bw, 0.1
		if _, err := Execute(cfg, w, m, s); err != nil {
			t.Errorf("bandwidth %v rejected: %v", bw, err)
		}
	}
}

// referenceExecute is the closure-per-event Execute, frozen as it stood
// before the port to typed events. Only its event core changed: the
// closures now run on sim.Queue through a table indexed by the event
// argument. TestExecuteMatchesReferenceBitIdentical holds Execute to its
// deployments bit for bit; an intended change to testbed semantics must
// update both copies.
func referenceExecute(cfg Config, w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) (*Deployment, error) {
	if cfg.VMMs < 1 || cfg.SlotsPerVMM < 1 {
		return nil, fmt.Errorf("testbed: need at least one VMM with one slot, have %d x %d", cfg.VMMs, cfg.SlotsPerVMM)
	}
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return nil, err
	}
	ev, err := w.Evaluate(m, s, nil)
	if err != nil {
		return nil, err
	}
	plan := w.PlanReuse(s, ev.Timing, workflow.ReuseByPrecedence)

	g := w.Graph()
	n := w.NumModules()
	times := m.Times(s)

	dep := &Deployment{
		Modules: make([]sim.ModuleTrace, n),
		VMs:     make([]VMRecord, plan.NumVMs()),
	}
	for i := range dep.Modules {
		dep.Modules[i] = sim.ModuleTrace{Ready: -1, Start: -1, Finish: -1, VM: plan.VMOf[i]}
	}
	for v := range dep.VMs {
		dep.VMs[v] = VMRecord{Type: plan.TypeOf[v], Host: -1, Requested: -1, Placed: -1, Ready: -1, Stopped: -1}
	}

	var sm sim.Queue
	var fns []func()
	hostLoad := make([]int, cfg.VMMs)      // occupied slots
	hostHasImage := make([]bool, cfg.VMMs) // image cache
	var waitQueue []int                    // VM indices awaiting slots
	pendingIn := make([]int, n)
	for i := 0; i < n; i++ {
		pendingIn[i] = g.InDegree(i)
	}
	vmNext := make([]int, plan.NumVMs())
	vmFree := make([]bool, plan.NumVMs())
	done := 0

	propagation := func(host int) float64 {
		if cfg.RepoBandwidthGBps <= 0 || hostHasImage[host] {
			return 0
		}
		return cfg.ImageGB / cfg.RepoBandwidthGBps
	}
	transfer := func(u, v int) float64 {
		if cfg.LinkBandwidth <= 0 {
			return 0
		}
		ds := w.DataSize(u, v)
		if ds == 0 {
			return 0
		}
		return ds/cfg.LinkBandwidth + 2*cfg.LinkDelay
	}

	var tryStart func(v int)
	var onFinish func(i int)
	var placeOrQueue func(v int)

	schedule := func(d float64, fn func()) {
		fns = append(fns, fn)
		sm.Schedule(d, 0, int32(len(fns)-1))
	}

	startModule := func(i int) {
		dep.Modules[i].Start = sm.Now()
		schedule(times[i], func() { onFinish(i) })
	}

	tryStart = func(v int) {
		if !vmFree[v] || vmNext[v] >= len(plan.ModulesOf[v]) {
			return
		}
		i := plan.ModulesOf[v][vmNext[v]]
		if dep.Modules[i].Ready < 0 {
			return
		}
		vmFree[v] = false
		vmNext[v]++
		dep.VMs[v].Modules = append(dep.VMs[v].Modules, i)
		startModule(i)
	}

	placeOrQueue = func(v int) {
		best := -1
		for h := 0; h < cfg.VMMs; h++ {
			if hostLoad[h] >= cfg.SlotsPerVMM {
				continue
			}
			if best == -1 || hostLoad[h] < hostLoad[best] {
				best = h
			}
		}
		if best == -1 {
			waitQueue = append(waitQueue, v)
			return
		}
		hostLoad[best]++
		dep.VMs[v].Host = best
		dep.VMs[v].Placed = sm.Now()
		dep.QueueWait += sm.Now() - dep.VMs[v].Requested
		prop := propagation(best)
		hostHasImage[best] = true
		schedule(prop+cfg.BootTime, func() {
			dep.VMs[v].Ready = sm.Now()
			vmFree[v] = true
			tryStart(v)
		})
	}

	onReady := func(i int) {
		dep.Modules[i].Ready = sm.Now()
		if w.Module(i).Fixed {
			startModule(i)
			return
		}
		v := plan.VMOf[i]
		if dep.VMs[v].Requested < 0 {
			dep.VMs[v].Requested = sm.Now()
			placeOrQueue(v)
			return
		}
		tryStart(v)
	}

	onFinish = func(i int) {
		dep.Modules[i].Finish = sm.Now()
		if sm.Now() > dep.Makespan {
			dep.Makespan = sm.Now()
		}
		done++
		if !w.Module(i).Fixed {
			v := plan.VMOf[i]
			vmFree[v] = true
			if vmNext[v] >= len(plan.ModulesOf[v]) {
				dep.VMs[v].Stopped = sm.Now()
				occ := sm.Now() - dep.VMs[v].Placed
				dep.VMs[v].Cost = m.Billing.BilledTime(occ) * m.Catalog[dep.VMs[v].Type].Rate
				dep.Cost += dep.VMs[v].Cost
				hostLoad[dep.VMs[v].Host]--
				if len(waitQueue) > 0 {
					next := waitQueue[0]
					waitQueue = waitQueue[1:]
					placeOrQueue(next)
				}
			} else {
				tryStart(v)
			}
		}
		for _, succ := range g.Succ(i) {
			succ := succ
			schedule(transfer(i, succ), func() {
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
			schedule(0, func() { onReady(i) })
		}
	}
	for {
		e, ok, err := sm.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		fns[e.Arg]()
	}
	if done != n {
		return nil, fmt.Errorf("testbed: stalled — %d of %d modules completed (capacity %d slots)",
			done, n, cfg.VMMs*cfg.SlotsPerVMM)
	}
	return dep, nil
}

// requireSameDeployment compares two deployments with Float64bits
// equality on every time and bill, and exact equality on hosts, types
// and module lists.
func requireSameDeployment(t *testing.T, label string, got, want *Deployment) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Makespan, want.Makespan) || !same(got.Cost, want.Cost) || !same(got.QueueWait, want.QueueWait) {
		t.Fatalf("%s: makespan/cost/wait {%v %v %v} != {%v %v %v}", label,
			got.Makespan, got.Cost, got.QueueWait, want.Makespan, want.Cost, want.QueueWait)
	}
	if len(got.Modules) != len(want.Modules) || len(got.VMs) != len(want.VMs) {
		t.Fatalf("%s: %d modules / %d VMs, want %d / %d", label,
			len(got.Modules), len(got.VMs), len(want.Modules), len(want.VMs))
	}
	for i, g := range got.Modules {
		w := want.Modules[i]
		if !same(g.Ready, w.Ready) || !same(g.Start, w.Start) || !same(g.Finish, w.Finish) || g.VM != w.VM {
			t.Fatalf("%s: module %d trace %+v != %+v", label, i, g, w)
		}
	}
	for v, g := range got.VMs {
		w := want.VMs[v]
		if g.Type != w.Type || g.Host != w.Host || !same(g.Requested, w.Requested) || !same(g.Placed, w.Placed) ||
			!same(g.Ready, w.Ready) || !same(g.Stopped, w.Stopped) || !same(g.Cost, w.Cost) {
			t.Fatalf("%s: VM %d record %+v != %+v", label, v, g, w)
		}
		if !slices.Equal(g.Modules, w.Modules) {
			t.Fatalf("%s: VM %d ran %v, want %v", label, v, g.Modules, w.Modules)
		}
	}
}

// stallInstance is the smallest workflow that stalls a 1x1-slot cloud:
// a and c share one VM by precedence reuse, so the VM keeps the only
// slot after a finishes while c waits for b, whose VM queues forever.
func stallInstance(t *testing.T) (*workflow.Workflow, *workflow.Matrices, workflow.Schedule) {
	t.Helper()
	w := workflow.New()
	a := w.AddModule(workflow.Module{Name: "a", Workload: 10})
	b := w.AddModule(workflow.Module{Name: "b", Workload: 10})
	c := w.AddModule(workflow.Module{Name: "c", Workload: 10})
	for _, e := range [][2]int{{a, c}, {b, c}} {
		if err := w.AddDependency(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	cat := cloud.Catalog{{Name: "x", Power: 10, Rate: 1}, {Name: "y", Power: 20, Rate: 2}}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	return w, m, workflow.Schedule{0, 1, 0}
}

// TestExecuteMatchesReferenceBitIdentical is the differential lock on
// the typed-event port: over random instances and schedules (least-cost,
// Critical-Greedy, random types) crossed with boot on/off, image
// propagation on/off, link transfers on/off and clouds from roomy to
// 1x1, Execute must reproduce the frozen closure version's deployment
// bit for bit, or fail with the same error. The coverage counters make
// sure queueing, reuse, propagation and stalls all actually happen.
func TestExecuteMatchesReferenceBitIdentical(t *testing.T) {
	type cloudShape struct{ vmms, slots int }
	shapes := []cloudShape{{4, 2}, {2, 2}, {2, 1}, {1, 1}}
	var queued, reused, propagated, stalled, runs int
	check := func(label string, cfg Config, w *workflow.Workflow, m *workflow.Matrices, s workflow.Schedule) {
		t.Helper()
		runs++
		want, werr := referenceExecute(cfg, w, m, s)
		got, gerr := Execute(cfg, w, m, s)
		if werr != nil || gerr != nil {
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
			}
			if strings.Contains(werr.Error(), "stalled") {
				stalled++
			}
			return
		}
		requireSameDeployment(t, label, got, want)
		if got.QueueWait > 0 {
			queued++
		}
		for _, vm := range got.VMs {
			if len(vm.Modules) > 1 {
				reused++
				break
			}
		}
		for _, vm := range got.VMs {
			if vm.Ready-vm.Placed > cfg.BootTime {
				propagated++
				break
			}
		}
	}

	w, m, s := stallInstance(t)
	check("stall 1x1", Config{VMMs: 1, SlotsPerVMM: 1}, w, m, s)
	if stalled != 1 {
		t.Fatal("1x1 stall instance did not stall")
	}

	rng := rand.New(rand.NewSource(14))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		size := gen.ProblemSize{M: 5 + rng.Intn(36), N: 2 + rng.Intn(5)}
		size.E = rng.Intn(size.M*(size.M-1)/2 + 1)
		w, cat, err := gen.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(w)
		cg, err := sched.Run(sched.CriticalGreedy(), w, m, cmin+rng.Float64()*(cmax-cmin))
		if err != nil {
			t.Fatal(err)
		}
		random := m.LeastCost(w)
		for _, i := range w.Schedulable() {
			random[i] = rng.Intn(len(cat))
		}
		scheds := map[string]workflow.Schedule{"least-cost": m.LeastCost(w), "cg": cg.Schedule, "random": random}
		for _, name := range []string{"least-cost", "cg", "random"} {
			for _, sh := range shapes {
				for mask := 0; mask < 8; mask++ {
					cfg := Config{VMMs: sh.vmms, SlotsPerVMM: sh.slots, ImageGB: 6.8}
					if mask&1 != 0 {
						cfg.BootTime = 0.5 + rng.Float64()
					}
					if mask&2 != 0 {
						cfg.RepoBandwidthGBps = 2 + 10*rng.Float64()
					}
					if mask&4 != 0 {
						cfg.LinkBandwidth, cfg.LinkDelay = 1+rng.Float64()*9, 0.01*rng.Float64()
					}
					label := fmt.Sprintf("trial %d %v %s %dx%d mask %03b", trial, size, name, sh.vmms, sh.slots, mask)
					check(label, cfg, w, m, scheds[name])
				}
			}
		}
	}
	t.Logf("%d runs: %d queued, %d with reuse, %d with propagation, %d stalled", runs, queued, reused, propagated, stalled)
	if queued == 0 || reused == 0 || propagated == 0 || stalled < 2 {
		t.Fatalf("differential missed a regime: queued=%d reused=%d propagated=%d stalled=%d", queued, reused, propagated, stalled)
	}
}
