package pool

import (
	"math"
	"sort"

	"medcc/internal/workflow"
)

// HBMCT implements the Hybrid Balanced Minimum Completion Time heuristic
// of Sakellariou and Zhao (the paper's reference [12]): tasks are ranked
// as in HEFT, partitioned into groups of mutually independent tasks in
// rank order, and each group is scheduled by Balanced Minimum Completion
// Time — start from the per-task minimum completion time assignment, then
// move tasks off the most-loaded instance while doing so reduces the
// group's finish time. Unlike HEFT it reasons about a whole group of
// ready tasks at once, which balances wide fan-outs better on small
// pools.
//
// medcc:deterministic — ties break on task index so runs are replayable
func HBMCT(p *Pool, w *workflow.Workflow) (*Result, error) {
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
	xfer := func(u, v int) float64 {
		if p.Bandwidth <= 0 {
			return 0
		}
		return w.DataSize(u, v) / p.Bandwidth
	}

	// Upward ranks with mean execution times (as in HEFT).
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	meanExec := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for inst := range p.Instances {
			s += exec(i, inst)
		}
		meanExec[i] = s / float64(len(p.Instances))
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

	// Group formation: walk tasks in rank order; a task joins the
	// current group unless one of its ancestors is already in it
	// (groups must be mutually independent).
	inCurrent := make([]bool, n)
	var groups [][]int
	var current []int
	dependsOnCurrent := func(v int) bool {
		// BFS over predecessors; group sizes are small, graphs are
		// moderate, so the simple search is fine.
		seen := make(map[int]bool)
		stack := append([]int(nil), g.Pred(v)...)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if inCurrent[u] {
				return true
			}
			if seen[u] {
				continue
			}
			seen[u] = true
			stack = append(stack, g.Pred(u)...)
		}
		return false
	}
	flush := func() {
		if len(current) > 0 {
			groups = append(groups, current)
			for _, i := range current {
				inCurrent[i] = false
			}
			current = nil
		}
	}
	for _, v := range prio {
		if dependsOnCurrent(v) {
			flush()
		}
		current = append(current, v)
		inCurrent[v] = true
	}
	flush()

	// Schedule groups in order with append-only instance timelines.
	avail := make([]float64, len(p.Instances)) // instance free time
	res := &Result{Placements: make([]Placement, n)}
	for i := range res.Placements {
		res.Placements[i] = Placement{Instance: -1}
	}

	readyOn := func(i, inst int) float64 {
		r := 0.0
		for _, pr := range g.Pred(i) {
			a := res.Placements[pr].Finish
			if res.Placements[pr].Instance != inst {
				a += xfer(pr, i)
			}
			if a > r {
				r = a
			}
		}
		return r
	}

	for _, group := range groups {
		// Initial MCT assignment within the group.
		assign := make(map[int]int, len(group))
		loads := append([]float64(nil), avail...)
		starts := make(map[int]float64, len(group))
		place := func(i int) {
			bestInst, bestFinish := -1, math.Inf(1)
			for inst := range p.Instances {
				start := math.Max(loads[inst], readyOn(i, inst))
				if f := start + exec(i, inst); f < bestFinish-1e-12 {
					bestInst, bestFinish = inst, f
				}
			}
			start := math.Max(loads[bestInst], readyOn(i, bestInst))
			assign[i] = bestInst
			starts[i] = start
			loads[bestInst] = start + exec(i, bestInst)
		}
		for _, i := range group {
			place(i)
		}
		// Balancing: while moving a task off the most-loaded instance
		// reduces the group's completion time, do it.
		recompute := func() {
			loads = append(loads[:0], avail...)
			for _, i := range group {
				inst := assign[i]
				start := math.Max(loads[inst], readyOn(i, inst))
				starts[i] = start
				loads[inst] = start + exec(i, inst)
			}
		}
		groupFinish := func() float64 {
			f := 0.0
			for _, l := range loads {
				if l > f {
					f = l
				}
			}
			return f
		}
		for iter := 0; iter < len(group)*len(p.Instances); iter++ {
			cur := groupFinish()
			// Most-loaded instance.
			worst := 0
			for inst := range loads {
				if loads[inst] > loads[worst] {
					worst = inst
				}
			}
			improved := false
			for _, i := range group {
				if assign[i] != worst {
					continue
				}
				for inst := range p.Instances {
					if inst == worst {
						continue
					}
					old := assign[i]
					assign[i] = inst
					recompute()
					if groupFinish() < cur-1e-12 {
						improved = true
						cur = groupFinish()
						break
					}
					assign[i] = old
					recompute()
				}
				if improved {
					break
				}
			}
			if !improved {
				break
			}
		}
		// Commit the group.
		recompute()
		for _, i := range group {
			inst := assign[i]
			res.Placements[i] = Placement{
				Instance: inst,
				Start:    starts[i],
				Finish:   starts[i] + exec(i, inst),
			}
		}
		copy(avail, loads)
		for _, l := range loads {
			if l > res.Makespan {
				res.Makespan = l
			}
		}
	}

	// Bill occupancy spans as in HEFT.
	first := make([]float64, len(p.Instances))
	last := make([]float64, len(p.Instances))
	used := make([]bool, len(p.Instances))
	for i := range first {
		first[i] = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		pl := res.Placements[i]
		if pl.Start < first[pl.Instance] {
			first[pl.Instance] = pl.Start
		}
		if pl.Finish > last[pl.Instance] {
			last[pl.Instance] = pl.Finish
		}
		used[pl.Instance] = true
	}
	for inst := range p.Instances {
		if used[inst] {
			res.Cost += float64(p.Billing.BilledTime(last[inst]-first[inst]) * p.Instances[inst].Type.Rate)
		}
	}
	return res, nil
}
