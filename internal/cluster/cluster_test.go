package cluster

import (
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
	"medcc/internal/wrf"
)

func totalWorkload(w *workflow.Workflow) float64 {
	s := 0.0
	for _, i := range w.Schedulable() {
		s += w.Module(i).Workload
	}
	return s
}

func checkPartition(t *testing.T, w *workflow.Workflow, r *Result) {
	t.Helper()
	seen := make([]bool, w.NumModules())
	for c, mems := range r.Members {
		for _, i := range mems {
			if seen[i] {
				t.Fatalf("module %d in two clusters", i)
			}
			seen[i] = true
			if r.ClusterOf[i] != c {
				t.Fatalf("ClusterOf[%d] = %d, want %d", i, r.ClusterOf[i], c)
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("module %d missing from partition", i)
		}
	}
	if math.Abs(totalWorkload(w)-totalWorkload(r.Clustered)) > 1e-9 {
		t.Fatal("workload not conserved")
	}
	if err := r.Clustered.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVerticalCollapsesPipeline(t *testing.T) {
	w := workflow.NewPipeline([]float64{10, 20, 30, 40})
	r, err := Vertical(w)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, w, r)
	if r.Clustered.NumModules() != 1 {
		t.Fatalf("pipeline collapsed to %d modules, want 1", r.Clustered.NumModules())
	}
	if r.Clustered.Module(0).Workload != 100 {
		t.Fatalf("aggregate workload %v", r.Clustered.Module(0).Workload)
	}
}

func TestVerticalKeepsBranchPoints(t *testing.T) {
	// diamond: a -> {b, c} -> d must not merge across the branch.
	w := workflow.New()
	a := w.AddModule(workflow.Module{Name: "a", Workload: 1})
	b := w.AddModule(workflow.Module{Name: "b", Workload: 1})
	c := w.AddModule(workflow.Module{Name: "c", Workload: 1})
	d := w.AddModule(workflow.Module{Name: "d", Workload: 1})
	for _, e := range [][2]int{{a, b}, {a, c}, {b, d}, {c, d}} {
		if err := w.AddDependency(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Vertical(w)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, w, r)
	if r.Clustered.NumModules() != 4 {
		t.Fatalf("diamond clustered to %d modules, want 4", r.Clustered.NumModules())
	}
}

func TestVerticalNeverMergesFixedModules(t *testing.T) {
	w := workflow.New()
	e := w.AddModule(workflow.Module{Name: "entry", Fixed: true, FixedTime: 1})
	m1 := w.AddModule(workflow.Module{Name: "m1", Workload: 5})
	m2 := w.AddModule(workflow.Module{Name: "m2", Workload: 5})
	x := w.AddModule(workflow.Module{Name: "exit", Fixed: true, FixedTime: 1})
	for _, ed := range [][2]int{{e, m1}, {m1, m2}, {m2, x}} {
		if err := w.AddDependency(ed[0], ed[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Vertical(w)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, w, r)
	// entry and exit stay alone; m1+m2 merge.
	if r.Clustered.NumModules() != 3 {
		t.Fatalf("%d modules, want 3", r.Clustered.NumModules())
	}
	if len(r.Clustered.Schedulable()) != 1 {
		t.Fatal("compute chain did not merge")
	}
}

// TestVerticalTurnsFullWRFIntoGroupedShape applies vertical clustering to
// the full Fig. 13 WRF program graph: each ungrib->...->ARWpost pipeline
// must collapse, leaving a narrow aggregate workflow like Fig. 14's.
func TestVerticalTurnsFullWRFIntoGroupedShape(t *testing.T) {
	full := wrf.Full() // 19 modules
	r, err := Vertical(full)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, full, r)
	if got := r.Clustered.NumModules(); got >= full.NumModules() || got > 10 {
		t.Fatalf("full WRF clustered to %d modules", got)
	}
	// The wrf.exe-dominated pipelines must have merged: some aggregate
	// carries the 700-unit workload plus its pipeline neighbors.
	found := false
	for _, i := range r.Clustered.Schedulable() {
		if r.Clustered.Module(i).Workload > 700 {
			found = true
		}
	}
	if !found {
		t.Fatal("no aggregate contains a wrf.exe pipeline")
	}
}

func TestClusteringPropertiesOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m := 5 + rng.Intn(20)
		w, err := gen.Random(rng, gen.Params{
			Modules: m, Edges: rng.Intn(m * (m - 1) / 2),
			WorkloadMin: 1, WorkloadMax: 10,
			DataSizeMax: 5, AddEntryExit: trial%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Vertical(w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPartition(t, w, r)
		if r.Clustered.NumModules() > w.NumModules() {
			t.Fatalf("trial %d: clustering grew the workflow", trial)
		}
	}
}

// TestExpandScheduleRoundTrip schedules a clustered workflow and expands
// the result through ClusterOf, every original module taking its
// aggregate's type: the expanded schedule must be valid for the original
// workflow, so fixed modules map to fixed aggregates and the rest to
// schedulable ones.
func TestExpandScheduleRoundTrip(t *testing.T) {
	full := wrf.Full()
	r, err := Vertical(full)
	if err != nil {
		t.Fatal(err)
	}
	cat := cloud.PaperExampleCatalog()
	m, err := r.Clustered.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(r.Clustered)
	res, err := sched.Run(sched.CriticalGreedy(), r.Clustered, m, (cmin+cmax)/2)
	if err != nil {
		t.Fatal(err)
	}
	expanded := make(workflow.Schedule, len(r.ClusterOf))
	for i, c := range r.ClusterOf {
		expanded[i] = res.Schedule[c]
	}
	if err := full.ValidateSchedule(expanded, len(cat)); err != nil {
		t.Fatal(err)
	}
}

// TestClusteringReducesSchedulingCost is the motivation check: clustering
// shrinks the aggregate module count (and, with round-up billing, usually
// Cmin too, since merged chains share billed hours).
func TestClusteringReducesSchedulingCost(t *testing.T) {
	full := wrf.Full()
	r, err := Vertical(full)
	if err != nil {
		t.Fatal(err)
	}
	cat := cloud.PaperExampleCatalog()
	mFull, _ := full.BuildMatrices(cat, cloud.HourlyRoundUp)
	mClus, _ := r.Clustered.BuildMatrices(cat, cloud.HourlyRoundUp)
	cminFull, _ := mFull.BudgetRange(full)
	cminClus, _ := mClus.BudgetRange(r.Clustered)
	if cminClus > cminFull+1e-9 {
		t.Fatalf("clustering raised Cmin: %v vs %v", cminClus, cminFull)
	}
}
