// Package multicloud implements the paper's stated future work (§VII):
// budget-constrained workflow scheduling across multiple clouds, where
// inter-cloud data movement costs money (Eq. 4 with CR > 0) and takes
// time over limited inter-datacenter bandwidth (Eq. 5), so VM placement
// must consider connectivity in addition to processing power and price.
//
// A module is now assigned a (region, VM type) pair. Within a region,
// transfers remain free and fast (the single-datacenter assumption of the
// main model); between regions, each dependency edge pays an egress fee
// per data unit at the producer's region and a transfer time of
// DS/bandwidth + delay. Both the total cost and the makespan therefore
// depend on edge placement, not just node placement.
package multicloud

import (
	"errors"
	"fmt"
	"math"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// Region is one cloud datacenter: a VM type catalog plus an egress fee
// charged per data unit leaving the region.
type Region struct {
	Name string
	// Types is the region's VM catalog.
	Types cloud.Catalog
	// EgressCostPerUnit is CR for edges leaving this region.
	EgressCostPerUnit float64
}

// Fabric is a set of regions with pairwise bandwidth and latency.
type Fabric struct {
	Regions []Region
	// Bandwidth[a][b] is the data rate between regions a and b
	// (unused on the diagonal: intra-region transfers are free).
	Bandwidth [][]float64
	// Delay[a][b] is the one-way latency between regions a and b.
	Delay [][]float64
	// Billing applies to VM occupancy in every region.
	Billing cloud.BillingPolicy
}

// Validate checks fabric shape and parameter sanity.
func (f *Fabric) Validate() error {
	n := len(f.Regions)
	if n == 0 {
		return errors.New("multicloud: no regions")
	}
	seen := map[string]bool{}
	for i, r := range f.Regions {
		if r.Name == "" {
			return fmt.Errorf("multicloud: region %d unnamed", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("multicloud: duplicate region %q", r.Name)
		}
		seen[r.Name] = true
		if err := r.Types.Validate(); err != nil {
			return fmt.Errorf("multicloud: region %q: %w", r.Name, err)
		}
		if r.EgressCostPerUnit < 0 || math.IsNaN(r.EgressCostPerUnit) {
			return fmt.Errorf("multicloud: region %q egress %v", r.Name, r.EgressCostPerUnit)
		}
	}
	if len(f.Bandwidth) != n || len(f.Delay) != n {
		return fmt.Errorf("multicloud: bandwidth/delay matrices must be %dx%d", n, n)
	}
	for a := 0; a < n; a++ {
		if len(f.Bandwidth[a]) != n || len(f.Delay[a]) != n {
			return fmt.Errorf("multicloud: row %d has wrong width", a)
		}
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if !(f.Bandwidth[a][b] > 0) {
				return fmt.Errorf("multicloud: bandwidth[%d][%d] = %v", a, b, f.Bandwidth[a][b])
			}
			if f.Delay[a][b] < 0 || math.IsNaN(f.Delay[a][b]) {
				return fmt.Errorf("multicloud: delay[%d][%d] = %v", a, b, f.Delay[a][b])
			}
		}
	}
	if f.Billing == nil {
		return errors.New("multicloud: nil billing policy")
	}
	return nil
}

// Assignment maps every module to a (region, type) pair; fixed modules
// carry (-1, -1). Both slices are indexed by module.
type Assignment struct {
	Region []int
	Type   []int
}

// Validate checks the assignment against the workflow and fabric.
func (f *Fabric) ValidateAssignment(w *workflow.Workflow, a Assignment) error {
	if len(a.Region) != w.NumModules() || len(a.Type) != w.NumModules() {
		return fmt.Errorf("multicloud: assignment length %d/%d for %d modules",
			len(a.Region), len(a.Type), w.NumModules())
	}
	for i := 0; i < w.NumModules(); i++ {
		if w.Module(i).Fixed {
			if a.Region[i] != -1 || a.Type[i] != -1 {
				return fmt.Errorf("multicloud: fixed module %d assigned", i)
			}
			continue
		}
		r := a.Region[i]
		if r < 0 || r >= len(f.Regions) {
			return fmt.Errorf("multicloud: module %d region %d out of range", i, r)
		}
		if a.Type[i] < 0 || a.Type[i] >= len(f.Regions[r].Types) {
			return fmt.Errorf("multicloud: module %d type %d out of range in region %d", i, a.Type[i], r)
		}
	}
	return nil
}

// execTime returns the execution time of module i under assignment a.
func (f *Fabric) execTime(w *workflow.Workflow, a Assignment, i int) float64 {
	if w.Module(i).Fixed {
		return w.Module(i).FixedTime
	}
	return f.Regions[a.Region[i]].Types[a.Type[i]].ExecTime(w.Module(i).Workload)
}

// execCost returns the billed execution cost of module i.
func (f *Fabric) execCost(w *workflow.Workflow, a Assignment, i int) float64 {
	if w.Module(i).Fixed {
		return 0
	}
	vt := f.Regions[a.Region[i]].Types[a.Type[i]]
	return f.Billing.BilledTime(vt.ExecTime(w.Module(i).Workload)) * vt.Rate
}

// regionOf returns the effective region of module i for transfer purposes;
// fixed entry/exit modules are region-less and their edges are free, which
// models staging input/output through the user's own storage.
func regionOf(w *workflow.Workflow, a Assignment, i int) int {
	if w.Module(i).Fixed {
		return -1
	}
	return a.Region[i]
}

// transferTime returns T(R_uv) under the assignment (Eq. 5).
func (f *Fabric) transferTime(w *workflow.Workflow, a Assignment, u, v int) float64 {
	ru, rv := regionOf(w, a, u), regionOf(w, a, v)
	if ru < 0 || rv < 0 || ru == rv {
		return 0
	}
	ds := w.DataSize(u, v)
	if ds == 0 {
		return 0
	}
	return ds/f.Bandwidth[ru][rv] + f.Delay[ru][rv]
}

// transferCost returns C(R_uv) = CR * DS for cross-region edges (Eq. 4).
func (f *Fabric) transferCost(w *workflow.Workflow, a Assignment, u, v int) float64 {
	ru, rv := regionOf(w, a, u), regionOf(w, a, v)
	if ru < 0 || rv < 0 || ru == rv {
		return 0
	}
	return f.Regions[ru].EgressCostPerUnit * w.DataSize(u, v)
}

// Evaluation is the analytic performance of a multi-cloud assignment.
type Evaluation struct {
	Makespan     float64
	ExecCost     float64
	TransferCost float64
	Timing       *dag.Timing
}

// TotalCost returns execution plus data-movement cost.
func (e *Evaluation) TotalCost() float64 { return e.ExecCost + e.TransferCost }

// Evaluate computes makespan (with assignment-dependent transfer times)
// and total cost of an assignment.
func (f *Fabric) Evaluate(w *workflow.Workflow, a Assignment) (*Evaluation, error) {
	if err := f.ValidateAssignment(w, a); err != nil {
		return nil, err
	}
	times := make([]float64, w.NumModules())
	for i := range times {
		times[i] = f.execTime(w, a, i)
	}
	t, err := dag.NewTiming(w.Graph(), times, func(u, v int) float64 {
		return f.transferTime(w, a, u, v)
	})
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Makespan: t.Makespan, Timing: t}
	for i := 0; i < w.NumModules(); i++ {
		ev.ExecCost += f.execCost(w, a, i)
	}
	g := w.Graph()
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Succ(u) {
			ev.TransferCost += f.transferCost(w, a, u, v)
		}
	}
	return ev, nil
}

// LeastCost returns the assignment minimizing total cost when every module
// independently picks its cheapest (region, type) pair and all modules
// co-locate in the globally cheapest region when that saves transfer fees.
// Exact least-cost with transfer fees is itself NP-hard (it contains
// multiterminal cut), so this returns the better of two natural
// candidates: per-module-cheapest and best-single-region.
func (f *Fabric) LeastCost(w *workflow.Workflow) (Assignment, error) {
	if err := f.Validate(); err != nil {
		return Assignment{}, err
	}
	if err := w.Validate(); err != nil {
		return Assignment{}, err
	}
	perModule := f.emptyAssignment(w)
	for _, i := range w.Schedulable() {
		br, bt, bc := -1, -1, math.Inf(1)
		for r := range f.Regions {
			for j := range f.Regions[r].Types {
				perModule.Region[i], perModule.Type[i] = r, j
				c := f.execCost(w, perModule, i)
				if c < bc {
					br, bt, bc = r, j, c
				}
			}
		}
		perModule.Region[i], perModule.Type[i] = br, bt
	}
	best := perModule
	bestEv, err := f.Evaluate(w, perModule)
	if err != nil {
		return Assignment{}, err
	}
	bestCost := bestEv.TotalCost()

	for r := range f.Regions {
		single := f.emptyAssignment(w)
		for _, i := range w.Schedulable() {
			bj, bc := -1, math.Inf(1)
			for j := range f.Regions[r].Types {
				single.Region[i], single.Type[i] = r, j
				c := f.execCost(w, single, i)
				if c < bc {
					bj, bc = j, c
				}
			}
			single.Region[i], single.Type[i] = r, bj
		}
		ev, err := f.Evaluate(w, single)
		if err != nil {
			return Assignment{}, err
		}
		if ev.TotalCost() < bestCost {
			best, bestCost = single, ev.TotalCost()
		}
	}
	return best, nil
}

func (f *Fabric) emptyAssignment(w *workflow.Workflow) Assignment {
	a := Assignment{
		Region: make([]int, w.NumModules()),
		Type:   make([]int, w.NumModules()),
	}
	for i := range a.Region {
		a.Region[i], a.Type[i] = -1, -1
	}
	return a
}
