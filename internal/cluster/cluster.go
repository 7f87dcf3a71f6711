// Package cluster implements the workflow clustering preprocessing the
// paper assumes has already happened to its inputs (§III-B: "scientific
// workflows that have been preprocessed by an appropriate clustering
// technique ... such that a group of modules in the original workflow are
// bundled together as one aggregate module"). Vertical clustering, from the
// cited Pegasus line of work, merges single-entry/single-exit chains: the
// transformation that turns the full WRF program graph (Fig. 13) into the
// grouped six-module workflow (Fig. 14), where ungrib -> metgrid -> real ->
// wrf -> ARWpost pipelines collapse into one aggregate each.
//
// It preserves execution semantics under the additive workload model:
// an aggregate's workload is the sum of its members', edges are the union
// of the members' external edges, and intra-cluster data movement
// disappears (it becomes local I/O on the shared VM).
package cluster

import (
	"fmt"

	"medcc/internal/workflow"
)

// Result is a clustered workflow plus the mapping back to the original.
type Result struct {
	// Clustered is the aggregate workflow.
	Clustered *workflow.Workflow
	// Members[c] lists the original module indices merged into
	// aggregate module c, in topological order.
	Members [][]int
	// ClusterOf[i] is the aggregate index of original module i.
	ClusterOf []int
}

// Vertical merges maximal chains: whenever module u has exactly one
// successor v, v has exactly one predecessor u, and neither is Fixed, the
// two are bundled. Applied transitively, every single-entry/single-exit
// pipeline collapses to one aggregate module.
func Vertical(w *workflow.Workflow) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	g := w.Graph()
	n := w.NumModules()
	parent := newUnionFind(n)
	for u := 0; u < n; u++ {
		if w.Module(u).Fixed || g.OutDegree(u) != 1 {
			continue
		}
		v := g.Succ(u)[0]
		if w.Module(v).Fixed || g.InDegree(v) != 1 {
			continue
		}
		parent.union(u, v)
	}
	return build(w, parent)
}

// build materializes the aggregate workflow from a union-find partition.
func build(w *workflow.Workflow, uf *unionFind) (*Result, error) {
	g := w.Graph()
	n := w.NumModules()

	// Assign dense cluster ids in order of the smallest member, keeping
	// the output deterministic and roughly topological.
	repToCluster := map[int]int{}
	var members [][]int
	for i := 0; i < n; i++ {
		r := uf.find(i)
		if _, ok := repToCluster[r]; !ok {
			repToCluster[r] = len(members)
			members = append(members, nil)
		}
		members[repToCluster[r]] = append(members[repToCluster[r]], i)
	}
	clusterOf := make([]int, n)
	for i := 0; i < n; i++ {
		clusterOf[i] = repToCluster[uf.find(i)]
	}

	out := workflow.New()
	for c, mems := range members {
		if len(mems) == 1 {
			out.AddModule(w.Module(mems[0]))
			continue
		}
		var wl float64
		name := ""
		for _, i := range mems {
			if w.Module(i).Fixed {
				return nil, fmt.Errorf("cluster: fixed module %d inside cluster %d", i, c)
			}
			wl += w.Module(i).Workload
			if name != "" {
				name += "+"
			}
			name += w.Module(i).Name
		}
		out.AddModule(workflow.Module{Name: name, Workload: wl})
	}

	// External edges: union of member edges, data sizes summed over
	// parallel originals; intra-cluster edges vanish.
	edgeData := map[[2]int]float64{}
	var edgeOrder [][2]int
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			cu, cv := clusterOf[u], clusterOf[v]
			if cu == cv {
				continue
			}
			key := [2]int{cu, cv}
			if _, ok := edgeData[key]; !ok {
				edgeOrder = append(edgeOrder, key)
			}
			edgeData[key] += w.DataSize(u, v)
		}
	}
	for _, key := range edgeOrder {
		if err := out.AddDependency(key[0], key[1], edgeData[key]); err != nil {
			return nil, fmt.Errorf("cluster: clustering created an invalid graph: %w", err)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: clustered workflow invalid: %w", err)
	}
	return &Result{Clustered: out, Members: members, ClusterOf: clusterOf}, nil
}

// unionFind is a minimal disjoint-set structure with path compression.
type unionFind struct{ p []int }

func newUnionFind(n int) *unionFind {
	u := &unionFind{p: make([]int, n)}
	for i := range u.p {
		u.p[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.p[x] != x {
		u.p[x] = u.p[u.p[x]]
		x = u.p[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		// Attach the larger root under the smaller so cluster ids
		// follow the smallest member.
		if ra < rb {
			u.p[rb] = ra
		} else {
			u.p[ra] = rb
		}
	}
}
