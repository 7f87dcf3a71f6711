package pool

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

func checkPooledInvariants(t *testing.T, p *Pool, w *workflow.Workflow, r *Result) {
	t.Helper()
	g := w.Graph()
	for i := 0; i < w.NumModules(); i++ {
		pl := r.Placements[i]
		if pl.Instance < 0 || pl.Instance >= len(p.Instances) {
			t.Fatalf("module %d unplaced", i)
		}
		if pl.Finish < pl.Start || pl.Start < 0 {
			t.Fatalf("module %d slot inverted: %+v", i, pl)
		}
		for _, v := range g.Succ(i) {
			need := r.Placements[i].Finish
			if r.Placements[v].Instance != pl.Instance && p.Bandwidth > 0 {
				need += w.DataSize(i, v) / p.Bandwidth
			}
			if r.Placements[v].Start < need-1e-9 {
				t.Fatalf("precedence violated on edge (%d,%d)", i, v)
			}
		}
	}
	// No overlap per instance.
	for inst := range p.Instances {
		var slots []Placement
		for i := 0; i < w.NumModules(); i++ {
			if r.Placements[i].Instance == inst {
				slots = append(slots, r.Placements[i])
			}
		}
		for a := range slots {
			for b := range slots {
				if a == b {
					continue
				}
				if slots[a].Start < slots[b].Finish-1e-9 && slots[b].Start < slots[a].Finish-1e-9 &&
					slots[a].Finish-slots[a].Start > 1e-12 && slots[b].Finish-slots[b].Start > 1e-12 {
					t.Fatalf("instance %d runs two modules at once", inst)
				}
			}
		}
	}
	if r.Makespan <= 0 && w.NumModules() > 0 {
		// zero only if all durations are zero
		total := 0.0
		for i := 0; i < w.NumModules(); i++ {
			total += r.Placements[i].Finish - r.Placements[i].Start
		}
		if total > 0 {
			t.Fatal("zero makespan with nonzero work")
		}
	}
}

func TestPoolValidate(t *testing.T) {
	good := Homogeneous(cloud.VMType{Name: "a", Power: 2, Rate: 1}, 2, 0, cloud.HourlyRoundUp)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Pool{
		{Billing: cloud.HourlyRoundUp},
		{Instances: []Instance{{Type: cloud.VMType{Power: 0}}}, Billing: cloud.HourlyRoundUp},
		{Instances: []Instance{{Type: cloud.VMType{Power: 1, Rate: -1}}}, Billing: cloud.HourlyRoundUp},
		{Instances: []Instance{{Type: cloud.VMType{Power: 1, Rate: 1}}}, Bandwidth: -1, Billing: cloud.HourlyRoundUp},
		{Instances: []Instance{{Type: cloud.VMType{Power: 1, Rate: 1}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pool %d accepted", i)
		}
	}
}

func TestHEFTSerializesOnOneInstance(t *testing.T) {
	p := Homogeneous(cloud.VMType{Name: "solo", Power: 10, Rate: 1}, 1, 0, cloud.HourlyRoundUp)
	rng := rand.New(rand.NewSource(1))
	w := gen.ForkJoin(rng, 4, 100, 100) // 4 x 10h branches
	r, err := HEFT(p, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPooledInvariants(t, p, w, r)
	// fork(1h) + 4 serialized branches (10h each) + join(1h).
	if math.Abs(r.Makespan-42) > 1e-9 {
		t.Fatalf("makespan %v, want 42", r.Makespan)
	}
}

func TestHEFTParallelizesAcrossInstances(t *testing.T) {
	vt := cloud.VMType{Name: "worker", Power: 10, Rate: 1}
	rng := rand.New(rand.NewSource(1))
	w := gen.ForkJoin(rng, 4, 100, 100)
	r1, err := HEFT(Homogeneous(vt, 1, 0, cloud.HourlyRoundUp), w)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := HEFT(Homogeneous(vt, 4, 0, cloud.HourlyRoundUp), w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r4.Makespan-12) > 1e-9 { // 1 + 10 + 1
		t.Fatalf("4-instance makespan %v, want 12", r4.Makespan)
	}
	if r4.Makespan >= r1.Makespan {
		t.Fatal("extra instances did not help an embarrassingly parallel stage")
	}
}

func TestHEFTPrefersFasterInstanceForCriticalChain(t *testing.T) {
	p := &Pool{
		Instances: []Instance{
			{Name: "slow", Type: cloud.VMType{Name: "slow", Power: 5, Rate: 1}},
			{Name: "fast", Type: cloud.VMType{Name: "fast", Power: 20, Rate: 4}},
		},
		Billing: cloud.HourlyRoundUp,
	}
	w := workflow.NewPipeline([]float64{40, 40})
	r, err := HEFT(p, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPooledInvariants(t, p, w, r)
	// Chain belongs on the fast instance: 2+2 = 4h.
	if math.Abs(r.Makespan-4) > 1e-9 {
		t.Fatalf("makespan %v, want 4", r.Makespan)
	}
	if r.Placements[0].Instance != 1 || r.Placements[1].Instance != 1 {
		t.Fatalf("chain not on the fast instance: %+v", r.Placements)
	}
}

func TestHEFTInsertionFillsGaps(t *testing.T) {
	// One instance; modules: A (2h) -> C (1h), B independent (1h).
	// Rank order schedules A, then C must wait for A; B can slot after.
	// With insertion, B fills any idle gap rather than extending the
	// schedule beyond necessity.
	p := Homogeneous(cloud.VMType{Name: "one", Power: 10, Rate: 1}, 1, 0, cloud.HourlyRoundUp)
	w := workflow.New()
	a := w.AddModule(workflow.Module{Name: "a", Workload: 20})
	b := w.AddModule(workflow.Module{Name: "b", Workload: 10})
	c := w.AddModule(workflow.Module{Name: "c", Workload: 10})
	if err := w.AddDependency(a, c, 0); err != nil {
		t.Fatal(err)
	}
	_ = b
	r, err := HEFT(p, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPooledInvariants(t, p, w, r)
	if math.Abs(r.Makespan-4) > 1e-9 { // 2 + 1 + 1 serialized
		t.Fatalf("makespan %v, want 4", r.Makespan)
	}
}

func TestHEFTTransfersMatter(t *testing.T) {
	vt := cloud.VMType{Name: "w", Power: 10, Rate: 1}
	w := workflow.New()
	a := w.AddModule(workflow.Module{Name: "a", Workload: 10})
	b := w.AddModule(workflow.Module{Name: "b", Workload: 10})
	if err := w.AddDependency(a, b, 100); err != nil {
		t.Fatal(err)
	}
	// With bandwidth 10, moving b to a second instance costs a 10h
	// transfer; HEFT must co-locate the chain.
	p := Homogeneous(vt, 2, 10, cloud.HourlyRoundUp)
	r, err := HEFT(p, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPooledInvariants(t, p, w, r)
	if r.Placements[0].Instance != r.Placements[1].Instance {
		t.Fatal("HEFT split a transfer-heavy chain across instances")
	}
	if math.Abs(r.Makespan-2) > 1e-9 {
		t.Fatalf("makespan %v, want 2", r.Makespan)
	}
}

func TestHEFTCostAccounting(t *testing.T) {
	vt := cloud.VMType{Name: "w", Power: 10, Rate: 2}
	p := Homogeneous(vt, 2, 0, cloud.HourlyRoundUp)
	rng := rand.New(rand.NewSource(2))
	w := gen.ForkJoin(rng, 2, 100, 100)
	r, err := HEFT(p, w)
	if err != nil {
		t.Fatal(err)
	}
	// Each branch 10h on its own instance; fixed fork/join run free.
	// Instance spans ~10-12h each, billed at rate 2.
	if r.Cost <= 0 || r.Cost > 2*13*2 {
		t.Fatalf("cost %v out of plausible range", r.Cost)
	}
}

func TestHEFTPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		m := 5 + rng.Intn(15)
		w, err := gen.Random(rng, gen.Params{
			Modules: m, Edges: rng.Intn(m * (m - 1) / 2),
			WorkloadMin: 10, WorkloadMax: 100,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := &Pool{Billing: cloud.HourlyRoundUp, Bandwidth: 50}
		for k := 0; k < 1+rng.Intn(5); k++ {
			p.Instances = append(p.Instances, Instance{
				Name: "i",
				Type: cloud.VMType{Name: "t", Power: 3 + rng.Float64()*20, Rate: 1 + rng.Float64()*5},
			})
		}
		r, err := HEFT(p, w)
		if err != nil {
			t.Fatal(err)
		}
		checkPooledInvariants(t, p, w, r)
	}
}

// TestPoolVsOneToOne compares the paper's one-to-one mapping with HEFT on
// the pool induced by its reuse plan: same instances, list scheduling may
// only fill gaps, so its makespan is within the analytic MED plus slack
// (and often below, since HEFT reorders across VM boundaries).
func TestPoolVsOneToOne(t *testing.T) {
	w, cat := workflow.PaperExample()
	m, _ := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := w.Evaluate(m, res.Schedule, nil)
	plan := w.PlanReuse(res.Schedule, ev.Timing, workflow.ReuseByInterval)
	p := &Pool{Billing: cloud.HourlyRoundUp}
	for v := 0; v < plan.NumVMs(); v++ {
		p.Instances = append(p.Instances, Instance{Name: fmt.Sprintf("vm%d", v), Type: cat[plan.TypeOf[v]]})
	}
	r, err := HEFT(p, w)
	if err != nil {
		t.Fatal(err)
	}
	checkPooledInvariants(t, p, w, r)
	if r.Makespan <= 0 {
		t.Fatal("pooled makespan zero")
	}
	// HEFT on the same hardware should not be drastically worse than
	// the one-to-one schedule that induced it.
	if r.Makespan > 2*res.MED {
		t.Fatalf("pooled makespan %v far above one-to-one %v", r.Makespan, res.MED)
	}
}
