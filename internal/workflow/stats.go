package workflow

import "medcc/internal/dag"

// Stats summarizes a workflow's shape — the quantities the scheduling
// literature characterizes benchmark workflows by.
type Stats struct {
	// Modules and Dependencies count all nodes/edges, Schedulable the
	// non-fixed modules.
	Modules, Dependencies, Schedulable int
	// Depth is the number of modules on the longest chain; Width the
	// maximum number of modules sharing a topological level.
	Depth, Width int
	// TotalWorkload sums WL_i over schedulable modules; TotalData sums
	// DS_ij over edges.
	TotalWorkload, TotalData float64
	// CCR is the communication-to-computation ratio TotalData /
	// TotalWorkload (zero when there is no workload).
	CCR float64
}

// ComputeStats derives the summary; it returns an error only for cyclic
// graphs.
func (w *Workflow) ComputeStats() (Stats, error) {
	g := w.Graph()
	order, err := g.TopoOrder()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Modules:      w.NumModules(),
		Dependencies: w.NumDependencies(),
		Schedulable:  len(w.Schedulable()),
	}
	level := make([]int, w.NumModules())
	widthAt := map[int]int{}
	for _, u := range order {
		for _, p := range g.Pred(u) {
			if level[p]+1 > level[u] {
				level[u] = level[p] + 1
			}
		}
		widthAt[level[u]]++
		if level[u]+1 > s.Depth {
			s.Depth = level[u] + 1
		}
	}
	// medcc:lint-ignore mapiter — max over values is order-independent.
	for _, c := range widthAt {
		if c > s.Width {
			s.Width = c
		}
	}
	for _, i := range w.Schedulable() {
		s.TotalWorkload += w.Module(i).Workload
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, ds := range w.DataSizes(u) {
			s.TotalData += ds
		}
	}
	if s.TotalWorkload > dag.Eps {
		s.CCR = s.TotalData / s.TotalWorkload
	}
	return s, nil
}
