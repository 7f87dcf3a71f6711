package workflow

import (
	"math"
	"testing"

	"medcc/internal/cloud"
)

func TestAddModuleAndDependency(t *testing.T) {
	w := New()
	a := w.AddModule(Module{Name: "a", Workload: 5})
	b := w.AddModule(Module{Name: "b", Workload: 3})
	if err := w.AddDependency(a, b, 7); err != nil {
		t.Fatal(err)
	}
	if w.NumModules() != 2 || w.NumDependencies() != 1 {
		t.Fatal("counts wrong")
	}
	if w.DataSize(a, b) != 7 {
		t.Fatalf("data size = %v", w.DataSize(a, b))
	}
	if w.DataSize(b, a) != 0 {
		t.Fatalf("absent edge data size = %v", w.DataSize(b, a))
	}
	if w.Module(0).Name != "a" {
		t.Fatalf("Module(0) = %+v", w.Module(0))
	}
}

func TestAddDependencyRejectsBadDataSize(t *testing.T) {
	w := New()
	w.AddModule(Module{Name: "a"})
	w.AddModule(Module{Name: "b"})
	for _, ds := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := w.AddDependency(0, 1, ds); err == nil {
			t.Errorf("data size %v accepted", ds)
		}
	}
	// A rejected dependency must not half-insert the edge.
	if w.NumDependencies() != 0 {
		t.Fatal("rejected dependency left an edge behind")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	w := New()
	w.AddModule(Module{Name: "only", Fixed: true, FixedTime: 1})
	if err := w.Validate(); err == nil {
		t.Fatal("workflow with no schedulable modules accepted")
	}
	w2 := New()
	w2.AddModule(Module{Name: "bad", Workload: -3})
	if err := w2.Validate(); err == nil {
		t.Fatal("negative workload accepted")
	}
	w3 := New()
	w3.AddModule(Module{Name: "bad", Fixed: true, FixedTime: math.NaN()})
	w3.AddModule(Module{Name: "ok", Workload: 1})
	if err := w3.Validate(); err == nil {
		t.Fatal("NaN fixed time accepted")
	}
}

func TestSchedulableSkipsFixed(t *testing.T) {
	w, _ := PaperExample()
	got := w.Schedulable()
	want := []int{1, 2, 3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("schedulable = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedulable = %v, want %v", got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	w, _ := PaperExample()
	c := w.Clone()
	mod := c.Module(1)
	mod.Workload = 999
	c.SetModule(1, mod)
	if w.Module(1).Workload == 999 {
		t.Fatal("clone workload change leaked")
	}
	if err := c.AddDependency(1, 7, 5); err != nil {
		t.Fatal(err)
	}
	if w.DataSize(1, 7) != 0 || w.Graph().HasEdge(1, 7) {
		t.Fatal("clone edge leaked")
	}
}

func TestBuildMatricesPaperExample(t *testing.T) {
	w, cat := PaperExample()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check against hand calculations used throughout the paper's
	// walk-through: w3 (WL=21) takes 7h/$7 on VT1 and 0.7h/$8 on VT3.
	if m.TE[3][0] != 7 || m.CE[3][0] != 7 {
		t.Fatalf("w3 on VT1: %v/%v", m.TE[3][0], m.CE[3][0])
	}
	if m.TE[3][2] != 0.7 || m.CE[3][2] != 8 {
		t.Fatalf("w3 on VT3: %v/%v", m.TE[3][2], m.CE[3][2])
	}
	// Fixed entry module: identical time in every column, zero cost.
	for j := 0; j < len(cat); j++ {
		if m.TE[0][j] != 1 || m.CE[0][j] != 0 {
			t.Fatalf("entry module column %d: %v/%v", j, m.TE[0][j], m.CE[0][j])
		}
	}
}

func TestBuildMatricesRejectsBadInput(t *testing.T) {
	w, _ := PaperExample()
	if _, err := w.BuildMatrices(cloud.Catalog{}, nil); err == nil {
		t.Fatal("empty catalog accepted")
	}
	bad := New()
	bad.AddModule(Module{Name: "x", Workload: math.Inf(1)})
	if _, err := bad.BuildMatrices(cloud.PaperExampleCatalog(), nil); err == nil {
		t.Fatal("invalid workflow accepted")
	}
}

func TestBuildMatricesDefaultBilling(t *testing.T) {
	w, cat := PaperExample()
	m, err := w.BuildMatrices(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Billing != cloud.HourlyRoundUp {
		t.Fatalf("default billing = %v", m.Billing)
	}
}

func TestLeastCostMatchesPaper(t *testing.T) {
	w, cat := PaperExample()
	m, _ := w.BuildMatrices(cat, nil)
	lc := m.LeastCost(w)
	// Paper: least-cost instantiates 3 VT2 (w1, w2, w5) and 3 VT1
	// (w3, w4, w6) at total cost 48.
	want := Schedule{-1, 1, 1, 0, 0, 1, 0, -1}
	if !lc.Equal(want) {
		t.Fatalf("least-cost = %v, want %v", lc, want)
	}
	if got := m.Cost(lc); got != 48 {
		t.Fatalf("Cmin = %v, want 48", got)
	}
}

func TestFastestMatchesPaper(t *testing.T) {
	w, cat := PaperExample()
	m, _ := w.BuildMatrices(cat, nil)
	f := m.Fastest(w)
	want := Schedule{-1, 2, 2, 2, 2, 2, 2, -1}
	if !f.Equal(want) {
		t.Fatalf("fastest = %v, want %v", f, want)
	}
	if got := m.Cost(f); got != 64 {
		t.Fatalf("Cmax = %v, want 64", got)
	}
}

func TestBudgetRangePaper(t *testing.T) {
	w, cat := PaperExample()
	m, _ := w.BuildMatrices(cat, nil)
	cmin, cmax := m.BudgetRange(w)
	if cmin != 48 || cmax != 64 {
		t.Fatalf("budget range = [%v,%v], want [48,64]", cmin, cmax)
	}
}

func TestLeastCostTieBreaksOnTime(t *testing.T) {
	// Two types with equal cost for the module; the faster must win.
	cat := cloud.Catalog{
		{Name: "slow", Power: 1, Rate: 1},  // WL=1: 1h, $1
		{Name: "fast", Power: 10, Rate: 1}, // WL=1: 0.1h, $1
	}
	w := New()
	w.AddModule(Module{Name: "m", Workload: 1})
	m, _ := w.BuildMatrices(cat, nil)
	if lc := m.LeastCost(w); lc[0] != 1 {
		t.Fatalf("least-cost chose type %d, want the faster tie", lc[0])
	}
}

func TestFastestTieBreaksOnCost(t *testing.T) {
	cat := cloud.Catalog{
		{Name: "pricey", Power: 10, Rate: 9},
		{Name: "cheap", Power: 10, Rate: 1},
	}
	w := New()
	w.AddModule(Module{Name: "m", Workload: 5})
	m, _ := w.BuildMatrices(cat, nil)
	if f := m.Fastest(w); f[0] != 1 {
		t.Fatalf("fastest chose type %d, want the cheaper tie", f[0])
	}
}

func TestEvaluatePaperLeastCost(t *testing.T) {
	w, cat := PaperExample()
	m, _ := w.BuildMatrices(cat, nil)
	ev, err := w.Evaluate(m, m.LeastCost(w), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cost != 48 {
		t.Fatalf("cost = %v", ev.Cost)
	}
	// Critical path: w0(1) + w2(8/3) + w4(20/3) + w6(6) + w7(1).
	want := 1 + 8.0/3 + 20.0/3 + 6 + 1
	if math.Abs(ev.Makespan-want) > 1e-9 {
		t.Fatalf("makespan = %v, want %v", ev.Makespan, want)
	}
}

func TestEvaluateRejectsBadSchedule(t *testing.T) {
	w, cat := PaperExample()
	m, _ := w.BuildMatrices(cat, nil)
	if _, err := w.Evaluate(m, Schedule{0}, nil); err == nil {
		t.Fatal("short schedule accepted")
	}
	s := m.LeastCost(w)
	s[0] = 0 // fixed module mapped
	if _, err := w.Evaluate(m, s, nil); err == nil {
		t.Fatal("mapped fixed module accepted")
	}
	s2 := m.LeastCost(w)
	s2[1] = 99
	if _, err := w.Evaluate(m, s2, nil); err == nil {
		t.Fatal("out-of-range type accepted")
	}
}

func TestEvaluateWithTransferTimes(t *testing.T) {
	// Pipeline a -> b with data size 100, bandwidth 10, delay 0.5:
	// makespan gains 10.5 over the zero-transfer case.
	w := New()
	w.AddModule(Module{Name: "a", Workload: 10})
	w.AddModule(Module{Name: "b", Workload: 10})
	if err := w.AddDependency(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	cat := cloud.Catalog{{Name: "VT1", Power: 10, Rate: 1}}
	m, _ := w.BuildMatrices(cat, nil)
	s := Schedule{0, 0}
	base, err := w.Evaluate(m, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	withXfer, err := w.Evaluate(m, s, w.TransferByBandwidth(10, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withXfer.Makespan-base.Makespan-10.5) > 1e-9 {
		t.Fatalf("transfer delta = %v, want 10.5", withXfer.Makespan-base.Makespan)
	}
}

func TestScheduleCloneEqual(t *testing.T) {
	s := Schedule{1, 2, 3}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = 9
	if s.Equal(c) || s[0] == 9 {
		t.Fatal("clone not independent")
	}
	if s.Equal(Schedule{1, 2}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestNewPipeline(t *testing.T) {
	p := NewPipeline([]float64{1, 2, 3})
	if p.NumModules() != 3 || p.NumDependencies() != 2 {
		t.Fatal("pipeline shape wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.Graph().HasEdge(0, 1) || !p.Graph().HasEdge(1, 2) {
		t.Fatal("pipeline edges wrong")
	}
}
