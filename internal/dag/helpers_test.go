package dag

import (
	"fmt"
	"math"
)

// Graph and Timing helpers that only tests use: fixture builders, the
// cycle oracle FuzzGraphJSON checks Validate against, and the critical
// path and node listings timing_test.go checks Slack and IsCritical with.

// AddNodes appends n anonymous nodes named "w0".."w<n-1>" (offset by the
// current node count) and returns the index of the first one.
func (g *Graph) AddNodes(n int) int {
	first := len(g.names)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("w%d", first+i))
	}
	return first
}

// MustEdge is AddEdge that panics on error; for hand-built test fixtures.
func (g *Graph) MustEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// FindCycle returns one directed cycle as a node sequence (first == last),
// or nil if the graph is acyclic.
func (g *Graph) FindCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(g.names)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.succ[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Back edge u -> v closes a cycle v ... u v.
				cycle = []int{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				cycle = append(cycle, v)
				// Reverse to forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for i := 0; i < n; i++ {
		if color[i] == white && dfs(i) {
			return cycle
		}
	}
	return nil
}

// CriticalNodes returns all zero-slack nodes in topological order.
func (t *Timing) CriticalNodes() []int {
	var out []int
	for _, u := range t.order {
		if t.IsCritical(u) {
			out = append(out, u)
		}
	}
	return out
}

// CriticalPath returns one longest (time-weighted) source-to-sink path in
// topological order. When several critical paths exist, the one following
// the lowest-index critical predecessor at each step is returned, so the
// result is deterministic.
func (t *Timing) CriticalPath() []int {
	g := t.g
	// Find a critical sink: EFT == makespan.
	end := -1
	for _, u := range t.order {
		if math.Abs(t.EFT[u]-t.Makespan) <= Eps {
			end = u
			break
		}
	}
	if end == -1 {
		return nil
	}
	// Walk backwards along tight edges: pred p is on the path if
	// EFT[p] + w(p,u) == EST[u] and p itself is critical.
	path := []int{end}
	u := end
	for t.EST[u] > Eps {
		next := -1
		for _, p := range g.Pred(u) {
			e := 0.0
			if t.edgeW != nil {
				e = t.edgeW(p, u)
			}
			if math.Abs(t.EFT[p]+e-t.EST[u]) <= Eps && t.IsCritical(p) {
				if next == -1 || p < next {
					next = p
				}
			}
		}
		if next == -1 {
			break
		}
		path = append(path, next)
		u = next
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
