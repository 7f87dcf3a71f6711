package exper

import (
	"fmt"
	"io"
	"math"

	"medcc/internal/adaptive"
	"medcc/internal/cloud"
	"medcc/internal/cluster"
	"medcc/internal/gen"
	"medcc/internal/multicloud"
	"medcc/internal/pool"
	"medcc/internal/sched"
	"medcc/internal/testbed"
	"medcc/internal/workflow"
	"medcc/internal/wrf"
)

// --- A3: provisioning — one-to-one MED-CC vs HEFT on a fixed pool ---

// ProvisioningRow compares the paper's one-to-one mapping (plus VM reuse)
// against HEFT list scheduling on pools of k fastest-type instances.
type ProvisioningRow struct {
	PoolSize   int
	HEFTMED    float64
	HEFTCost   float64
	OneToOne   float64 // CG MED at the budget equal to the HEFT cost
	OneToOneOK bool    // false when that budget is below Cmin
}

// Provisioning sweeps homogeneous pool sizes 1..maxPool on the paper's
// example workflow: for each pool, HEFT's makespan and bill, and what CG
// achieves when given that bill as its budget. This quantifies the cost
// of the one-to-one mapping assumption (DESIGN.md §5).
func Provisioning(maxPool int) ([]ProvisioningRow, error) {
	w, cat := workflow.PaperExample()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		return nil, err
	}
	cmin, _ := m.BudgetRange(w)
	fast := cat[cat.Fastest()]
	var rows []ProvisioningRow
	for k := 1; k <= maxPool; k++ {
		p := pool.Homogeneous(fast, k, 0, cloud.HourlyRoundUp)
		hr, err := pool.HEFT(p, w)
		if err != nil {
			return nil, err
		}
		row := ProvisioningRow{PoolSize: k, HEFTMED: hr.Makespan, HEFTCost: hr.Cost}
		if hr.Cost >= cmin {
			res, err := sched.Run(sched.CriticalGreedy(), w, m, hr.Cost)
			if err != nil {
				return nil, err
			}
			row.OneToOne = res.MED
			row.OneToOneOK = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderProvisioning prints the A3 sweep.
func RenderProvisioning(w io.Writer, rows []ProvisioningRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Pool size\tHEFT MED\tHEFT cost\tCG MED at same spend")
	for _, r := range rows {
		cg := "infeasible"
		if r.OneToOneOK {
			cg = fmt.Sprintf("%.2f", r.OneToOne)
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%.0f\t%s\n", r.PoolSize, r.HEFTMED, r.HEFTCost, cg)
	}
	return tw.Flush()
}

// --- A4: multi-cloud — the paper's future work, quantified ---

// MultiCloudRow compares multi-cloud Critical-Greedy against the best
// single region at one budget.
type MultiCloudRow struct {
	Budget    float64
	MultiMED  float64
	MultiCost float64
	Regions   int // distinct regions used by the multi-cloud schedule
	SingleMED float64
}

// MultiCloud sweeps budgets on a two-region scenario: an economy region
// and a premium region joined by a metered link, running a workflow with
// one compute-dominant branch next to light glue stages. In the budget
// window between "heavy branch on premium" and "everything on premium",
// hybrid placement is the only way to meet the delay — the situation the
// paper's future-work section anticipates.
func MultiCloud(levels int) ([]MultiCloudRow, error) {
	f := &multicloud.Fabric{
		Regions: []multicloud.Region{
			{
				Name:              "economy",
				Types:             cloud.Catalog{{Name: "e1", Power: 3, Rate: 1}, {Name: "e2", Power: 5, Rate: 2}},
				EgressCostPerUnit: 0.2,
			},
			{
				Name:              "premium",
				Types:             cloud.Catalog{{Name: "p1", Power: 12, Rate: 6}, {Name: "p2", Power: 24, Rate: 14}},
				EgressCostPerUnit: 0.5,
			},
		},
		Bandwidth: [][]float64{{0, 20}, {20, 0}},
		Delay:     [][]float64{{0, 0.05}, {0.05, 0}},
		Billing:   cloud.HourlyRoundUp,
	}
	w := workflow.New()
	glue1 := w.AddModule(workflow.Module{Name: "stage-in", Workload: 3})
	heavy := w.AddModule(workflow.Module{Name: "solver", Workload: 240})
	light := w.AddModule(workflow.Module{Name: "metadata", Workload: 6})
	glue2 := w.AddModule(workflow.Module{Name: "stage-out", Workload: 3})
	for _, e := range [][2]int{{glue1, heavy}, {glue1, light}, {heavy, glue2}, {light, glue2}} {
		if err := w.AddDependency(e[0], e[1], 0.5); err != nil {
			return nil, err
		}
	}
	lc, err := f.LeastCost(w)
	if err != nil {
		return nil, err
	}
	lcEv, err := f.Evaluate(w, lc)
	if err != nil {
		return nil, err
	}
	cmin := lcEv.TotalCost()
	var rows []MultiCloudRow
	for k := 0; k <= levels; k++ {
		b := cmin * (1 + float64(k)/float64(levels))
		multi, err := f.Schedule(w, b)
		if err != nil {
			return nil, err
		}
		single, err := f.SingleRegionBest(w, b)
		if err != nil {
			return nil, err
		}
		used := map[int]bool{}
		for _, i := range w.Schedulable() {
			used[multi.Assignment.Region[i]] = true
		}
		rows = append(rows, MultiCloudRow{
			Budget:    b,
			MultiMED:  multi.MED,
			MultiCost: multi.Cost,
			Regions:   len(used),
			SingleMED: single.MED,
		})
	}
	return rows, nil
}

// RenderMultiCloud prints the A4 sweep.
func RenderMultiCloud(w io.Writer, rows []MultiCloudRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Budget\tMulti-cloud MED\tcost\tregions used\tBest single region MED\tGain (%)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%.2f\t%.0f\t%d\t%.2f\t%.1f\n",
			r.Budget, r.MultiMED, r.MultiCost, r.Regions, r.SingleMED,
			sched.Improvement(r.SingleMED, r.MultiMED))
	}
	return tw.Flush()
}

// --- A7: testbed capacity — queueing under limited VMM slots ---

// CapacityRow reports one cloud size of the A7 sweep.
type CapacityRow struct {
	VMMs      int
	Slots     int
	Makespan  float64
	QueueWait float64
	VMs       int
}

// TestbedCapacity executes one CG schedule of a wide CyberShake-style
// workflow on simulated Nimbus clouds of growing size (1..maxVMMs VMM
// nodes, two slots each), showing how placement queueing stretches the
// makespan when the cloud is narrower than the workflow.
func TestbedCapacity(seed int64, width, maxVMMs int) ([]CapacityRow, error) {
	w := gen.CyberShakeLike(newRNG(seed, 0), width)
	cat := cloud.DiminishingCatalog(4, 3, 1, gen.SimulationGamma)
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		return nil, err
	}
	cmin, cmax := m.BudgetRange(w)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, (cmin+cmax)/2)
	if err != nil {
		return nil, err
	}
	var rows []CapacityRow
	for v := 1; v <= maxVMMs; v++ {
		cfg := testbed.Config{VMMs: v, SlotsPerVMM: 2}
		dep, err := testbed.Execute(cfg, w, m, res.Schedule)
		if err != nil {
			return nil, fmt.Errorf("VMMs=%d: %w", v, err)
		}
		rows = append(rows, CapacityRow{
			VMMs:      v,
			Slots:     v * cfg.SlotsPerVMM,
			Makespan:  dep.Makespan,
			QueueWait: dep.QueueWait,
			VMs:       len(dep.VMs),
		})
	}
	return rows, nil
}

// RenderCapacity prints the A7 sweep.
func RenderCapacity(w io.Writer, rows []CapacityRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "VMM nodes\tSlots\tMakespan\tTotal queue wait\tVMs provisioned")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%d\n", r.VMMs, r.Slots, r.Makespan, r.QueueWait, r.VMs)
	}
	return tw.Flush()
}

// --- A6: runtime uncertainty — static vs adaptive re-planning ---

// AdaptiveRow aggregates static-vs-adaptive outcomes at one noise level.
type AdaptiveRow struct {
	OverRuns        float64 // noise upper bound (e.g. 0.4 = up to 40% slower)
	StaticOverspend float64
	AdaptOverspend  float64
	StaticMakespan  float64
	AdaptMakespan   float64
	Replans         float64
}

// Adaptive sweeps pessimistic noise levels on random instances: each cell
// averages `instances x seeds` executions of the same schedules with and
// without per-completion re-planning (internal/adaptive).
func Adaptive(seed int64, size gen.ProblemSize, instances, seeds int) ([]AdaptiveRow, error) {
	noises := []float64{0, 0.2, 0.4, 0.6}
	rows := make([]AdaptiveRow, len(noises))
	err := parallelForWorkers(len(noises), func(_, ni int) error {
		noise := noises[ni]
		row := AdaptiveRow{OverRuns: noise}
		count := 0
		for inst := 0; inst < instances; inst++ {
			rng := newRNG(seed, inst)
			wf, cat, err := gen.Instance(rng, size)
			if err != nil {
				return err
			}
			m, err := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
			if err != nil {
				return err
			}
			cmin, cmax := m.BudgetRange(wf)
			budget := (cmin + cmax) / 2
			for sd := 0; sd < seeds; sd++ {
				base := adaptive.Config{
					Workflow: wf, Catalog: cat, Billing: cloud.HourlyRoundUp,
					Budget: budget, Seed: int64(sd),
				}
				if noise > 0 {
					base.Perturb = adaptive.Uniform(0.1, noise)
				}
				st, err := adaptive.Run(base)
				if err != nil {
					return err
				}
				base.Replan = true
				ad, err := adaptive.Run(base)
				if err != nil {
					return err
				}
				row.StaticOverspend += st.Overspend
				row.AdaptOverspend += ad.Overspend
				row.StaticMakespan += st.Makespan
				row.AdaptMakespan += ad.Makespan
				row.Replans += float64(ad.Replans)
				count++
			}
		}
		row.StaticOverspend /= float64(count)
		row.AdaptOverspend /= float64(count)
		row.StaticMakespan /= float64(count)
		row.AdaptMakespan /= float64(count)
		row.Replans /= float64(count)
		rows[ni] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAdaptive prints the A6 noise sweep.
func RenderAdaptive(w io.Writer, rows []AdaptiveRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Noise (+%)\tStatic overspend\tAdaptive overspend\tStatic makespan\tAdaptive makespan\tReplans/run")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%.2f\t%.2f\t%.2f\t%.2f\t%.1f\n",
			r.OverRuns*100, r.StaticOverspend, r.AdaptOverspend, r.StaticMakespan, r.AdaptMakespan, r.Replans)
	}
	return tw.Flush()
}

// --- A5: clustering — the paper's assumed preprocessing, measured ---

// ClusteringRow reports the effect of vertical clustering on the full WRF
// program graph at one budget fraction.
type ClusteringRow struct {
	Label        string
	Modules      int
	Cmin, Cmax   float64
	MEDMidBudget float64
}

// Clustering compares scheduling the full Fig. 13 WRF program graph
// directly against scheduling its vertically clustered form (the Fig. 14
// preprocessing), both with the Table I VM catalog at the mid budget.
func Clustering() ([]ClusteringRow, error) {
	cat := cloud.PaperExampleCatalog()
	full := wrf.Full()
	r, err := cluster.Vertical(full)
	if err != nil {
		return nil, err
	}
	var rows []ClusteringRow
	for _, c := range []struct {
		label string
		w     *workflow.Workflow
	}{
		{"full (Fig. 13)", full},
		{"clustered (Fig. 14 style)", r.Clustered},
	} {
		m, err := c.w.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			return nil, err
		}
		cmin, cmax := m.BudgetRange(c.w)
		res, err := sched.Run(sched.CriticalGreedy(), c.w, m, (cmin+cmax)/2)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ClusteringRow{
			Label:        c.label,
			Modules:      c.w.NumModules(),
			Cmin:         cmin,
			Cmax:         cmax,
			MEDMidBudget: res.MED,
		})
	}
	if math.IsNaN(rows[0].MEDMidBudget) {
		return nil, fmt.Errorf("exper: NaN MED in clustering study")
	}
	return rows, nil
}

// RenderClustering prints the A5 comparison.
func RenderClustering(w io.Writer, rows []ClusteringRow) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Workflow\tModules\tCmin\tCmax\tCG MED @ mid budget")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.2f\n", r.Label, r.Modules, r.Cmin, r.Cmax, r.MEDMidBudget)
	}
	return tw.Flush()
}
