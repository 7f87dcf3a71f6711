// Package pool schedules workflows onto a FIXED set of provisioned VM
// instances with the classic HEFT list scheduler (Topcuoglu et al., cited
// as [11] in the paper). Where the MED-CC model asks "which VM type should
// each module get, one VM per module?", this package answers the
// complementary provisioning question from the paper's introduction —
// given a concrete pool of instances a user is willing to pay for, what
// makespan can the workflow achieve and what will the pool's occupancy
// bill be? Sweeping pool compositions against MED-CC schedules makes the
// one-to-one mapping assumption of the paper testable.
package pool

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

// Instance is one provisioned VM in the pool.
type Instance struct {
	Name string
	Type cloud.VMType
}

// Pool is a fixed set of instances plus the data fabric between them.
type Pool struct {
	Instances []Instance
	// Bandwidth is the shared-storage data rate between distinct
	// instances; 0 means transfers are free. Same-instance transfers
	// are always free.
	Bandwidth float64
	// Billing prices each instance's occupancy span.
	Billing cloud.BillingPolicy
}

// Validate checks pool sanity.
func (p *Pool) Validate() error {
	if len(p.Instances) == 0 {
		return errors.New("pool: no instances")
	}
	for i, in := range p.Instances {
		if !(in.Type.Power > 0) {
			return fmt.Errorf("pool: instance %d has invalid power %v", i, in.Type.Power)
		}
		if in.Type.Rate < 0 || math.IsNaN(in.Type.Rate) {
			return fmt.Errorf("pool: instance %d has invalid rate %v", i, in.Type.Rate)
		}
	}
	if p.Bandwidth < 0 || math.IsNaN(p.Bandwidth) {
		return fmt.Errorf("pool: invalid bandwidth %v", p.Bandwidth)
	}
	if p.Billing == nil {
		return errors.New("pool: nil billing policy")
	}
	return nil
}

// Placement records one module's slot on an instance.
type Placement struct {
	Instance int
	Start    float64
	Finish   float64
}

// Result is a pooled schedule.
type Result struct {
	// Placements is indexed by module.
	Placements []Placement
	// Makespan is the latest finish time.
	Makespan float64
	// Cost sums each used instance's billed occupancy (first start to
	// last finish on that instance).
	Cost float64
}

// HEFT runs the Heterogeneous Earliest Finish Time heuristic: modules are
// prioritized by upward rank (mean execution time plus mean transfer time
// along the longest descendant chain) and greedily placed, in rank order,
// on the instance that minimizes their earliest finish time, with
// insertion into idle gaps allowed.
func HEFT(p *Pool, w *workflow.Workflow) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	g := w.Graph()
	n := w.NumModules()

	exec := func(i, inst int) float64 {
		if w.Module(i).Fixed {
			return w.Module(i).FixedTime
		}
		return p.Instances[inst].Type.ExecTime(w.Module(i).Workload)
	}
	meanExec := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for inst := range p.Instances {
			s += exec(i, inst)
		}
		meanExec[i] = s / float64(len(p.Instances))
	}
	xfer := func(u, v int) float64 {
		if p.Bandwidth <= 0 {
			return 0
		}
		return w.DataSize(u, v) / p.Bandwidth
	}

	// Upward ranks in reverse topological order.
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make([]float64, n)
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		best := 0.0
		for _, v := range g.Succ(u) {
			if r := xfer(u, v) + rank[v]; r > best {
				best = r
			}
		}
		rank[u] = meanExec[u] + best
	}
	prio := append([]int(nil), order...)
	sort.SliceStable(prio, func(a, b int) bool {
		// medcc:lint-ignore floateq — comparator needs a strict weak order; exact rank split, then index tie-break.
		if rank[prio[a]] != rank[prio[b]] {
			return rank[prio[a]] > rank[prio[b]]
		}
		return prio[a] < prio[b]
	})
	// HEFT requires a topological-compatible processing order; upward
	// ranks guarantee rank(pred) > rank(succ) when transfers and times
	// are non-negative, with ties broken by index; validate anyway to
	// catch degenerate all-zero-time inputs.
	pos := make([]int, n)
	for k, u := range prio {
		pos[u] = k
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			if pos[u] > pos[v] {
				return nil, fmt.Errorf("pool: rank order violates precedence (%d after %d)", u, v)
			}
		}
	}

	busy := make([][]slot, len(p.Instances))
	res := &Result{Placements: make([]Placement, n)}
	for i := range res.Placements {
		res.Placements[i] = Placement{Instance: -1}
	}

	for _, i := range prio {
		bestInst, bestStart, bestFinish := -1, 0.0, math.Inf(1)
		for inst := range p.Instances {
			// Data-ready time on this instance.
			ready := 0.0
			for _, pr := range g.Pred(i) {
				a := res.Placements[pr].Finish
				if res.Placements[pr].Instance != inst {
					a += xfer(pr, i)
				}
				if a > ready {
					ready = a
				}
			}
			d := exec(i, inst)
			start := insertionStart(busy[inst], ready, d)
			if start+d < bestFinish-1e-12 {
				bestInst, bestStart, bestFinish = inst, start, start+d
			}
		}
		res.Placements[i] = Placement{Instance: bestInst, Start: bestStart, Finish: bestFinish}
		busy[bestInst] = insertSlot(busy[bestInst], slot{bestStart, bestFinish})
		if bestFinish > res.Makespan {
			res.Makespan = bestFinish
		}
	}

	// Bill each used instance for its occupancy span.
	for inst := range p.Instances {
		if len(busy[inst]) == 0 {
			continue
		}
		span := busy[inst][len(busy[inst])-1].finish - busy[inst][0].start
		res.Cost += float64(p.Billing.BilledTime(span) * p.Instances[inst].Type.Rate)
	}
	return res, nil
}

// slot is one occupied interval on an instance's timeline.
type slot struct{ start, finish float64 }

// insertionStart finds the earliest start >= ready on a sorted busy list
// such that [start, start+d) fits in a gap (or after the last slot).
func insertionStart(busy []slot, ready, d float64) float64 {
	start := ready
	for _, s := range busy {
		if start+d <= s.start+1e-12 {
			return start
		}
		if s.finish > start {
			start = s.finish
		}
	}
	return start
}

// insertSlot inserts keeping the list sorted by start time.
func insertSlot(busy []slot, s slot) []slot {
	k := sort.Search(len(busy), func(i int) bool { return busy[i].start >= s.start })
	busy = append(busy, slot{})
	copy(busy[k+1:], busy[k:])
	busy[k] = s
	return busy
}

// Homogeneous builds a pool of count identical instances of the given
// type, named "<type>-0".."<type>-(count-1)".
func Homogeneous(vt cloud.VMType, count int, bandwidth float64, billing cloud.BillingPolicy) *Pool {
	p := &Pool{Bandwidth: bandwidth, Billing: billing}
	for i := 0; i < count; i++ {
		p.Instances = append(p.Instances, Instance{
			Name: fmt.Sprintf("%s-%d", vt.Name, i),
			Type: vt,
		})
	}
	return p
}
