// Package dag provides a directed acyclic graph substrate for workflow
// scheduling: construction, validation, topological ordering, and the
// forward/backward timing passes (EST/EFT/LST/LFT) from which critical
// paths and module slack are derived.
//
// A Graph stores pure structure (nodes and edges). Weights are supplied at
// analysis time, because in budget-constrained scheduling the node weights
// (module execution times) change every time a module is remapped to a
// different VM type while the structure stays fixed.
package dag

import (
	"errors"
	"fmt"
)

// ErrCycle is returned by Validate and TopoOrder when the graph contains a
// directed cycle and is therefore not a DAG.
var ErrCycle = errors.New("dag: graph contains a cycle")

// Graph is a directed graph intended to be acyclic. The zero value is an
// empty graph ready to use. Nodes are dense integer indices assigned by
// AddNode in insertion order; edges are unweighted at the structural level.
type Graph struct {
	names []string
	succ  [][]int
	pred  [][]int
	edges int

	// Duplicate-edge state. A run is a stretch of consecutive AddEdge
	// calls from one source u. While one is open, runFrom is u+1 (0 when
	// none is: in the zero value and after Reset), mark[v] == stamp holds
	// exactly for the successors the run has added, and runBase is
	// len(succ[u]) when the run opened, so u's earlier successors are
	// succ[u][:runBase]. Every run takes a new stamp, and mark and stamp
	// survive Reset, so the marks of earlier runs never match.
	mark    []uint64
	stamp   uint64
	runFrom int
	runBase int

	// fresh marks the derived cache below (topo order, positions and the
	// transitive reduction's CSR) as current. Structural mutations and
	// Reset only clear it; the next topoShared rebuilds every array into
	// its retained capacity, so a graph rebuilt in place by a pooled
	// decoder or generator reaches a steady state where warming the cache
	// allocates nothing. A Graph is safe for concurrent reads only after
	// the cache has been warmed (any call to TopoOrder or Validate does
	// so), which BuildMatrices guarantees before schedulers run.
	fresh bool

	// topo and pos cache the topological order and each node's position
	// in it, so repeated timing passes skip Kahn's algorithm.
	topo []int
	pos  []int

	// redPredOff/redPredAdj and redSuccOff/redSuccAdj are the CSR of the
	// transitive reduction (node u's kept predecessors are
	// redPredAdj[redPredOff[u]:redPredOff[u+1]], in the order of
	// Pred(u)), the graph's only flat adjacency. Zero-edge-weight timing
	// passes relax over these contiguous arrays: with transfer time zero
	// and non-negative node weights, a transitively redundant edge (u,v)
	// can never determine EST[v] or Tail[u] — the path through an
	// intermediate predecessor always contributes at least as much, in
	// float arithmetic too — so dropping such edges leaves every
	// EST/EFT/Tail value bit-identical while shrinking the per-update
	// relaxation work by the graph's edge redundancy (an order of
	// magnitude on the paper's dense random instances).
	redPredOff, redPredAdj []int32
	redSuccOff, redSuccAdj []int32

	// Rebuild scratch, kept across rebuilds: Kahn's indegree counters and
	// ready min-heap, the ancestor bitsets of the transitive-reduction
	// test, and the per-node counts of kept out-edges.
	indeg  []int32
	ready  []int32
	anc    []uint64
	outdeg []int32

	// version counts structural mutations (AddNode/AddEdge/Reset), so
	// caches keyed on a *Graph pointer (scheduler engines, pooled
	// builders) can detect that the graph was rebuilt in place behind the
	// same address. It never decreases.
	version uint64
}

// New returns an empty graph. Equivalent to new(Graph); provided for
// symmetry with the rest of the module.
func New() *Graph { return &Graph{} }

// invalidateTopo marks the derived cache stale after a structural mutation
// and bumps Version. The cache arrays keep their capacity and are
// overwritten in place by the next topoShared, so anything still aliasing
// them — a Timing built before the mutation — no longer describes its own
// structure and must be rebuilt; Version is how holders detect that.
func (g *Graph) invalidateTopo() {
	g.fresh = false
	g.version++
}

// Version returns the structural mutation counter: it changes whenever a
// node or edge is added or the graph is Reset. Holders of derived state
// (a Timing, a scheduler engine) compare versions to detect that a graph
// reached through a retained pointer has been rebuilt in place.
func (g *Graph) Version() uint64 { return g.version }

// Reset empties the graph for rebuilding while retaining all allocated
// storage: the node table, the per-node adjacency slices, the cache arrays
// (topo order, reduced CSR) and their rebuild scratch keep their
// capacity, so a Graph cycled through Reset/AddNode/AddEdge/Validate by a
// pooled decoder or generator reaches a steady state with zero
// allocations once every array has grown to the largest instance seen.
// Because the next cache rebuild overwrites the old arrays in place, any
// Timing or cached view of the old structure is not merely outdated but
// invalid: holders must compare Version and rebuild before touching it.
func (g *Graph) Reset() {
	g.invalidateTopo()
	g.names = g.names[:0]
	// Truncating the outer slices keeps the inner adjacency slices alive
	// in the backing array; AddNode re-adopts them at capacity.
	g.succ = g.succ[:0]
	g.pred = g.pred[:0]
	g.edges = 0
	g.runFrom = 0
}

// AddNode appends a node with the given display name and returns its index.
func (g *Graph) AddNode(name string) int {
	g.invalidateTopo()
	g.names = append(g.names, name)
	// After a Reset the backing arrays still hold the old per-node
	// adjacency slices; re-adopt them truncated so their capacity is
	// reused instead of appending fresh nil slices.
	if n := len(g.succ); n < cap(g.succ) && n < cap(g.pred) {
		g.succ = g.succ[: n+1 : cap(g.succ)]
		g.succ[n] = g.succ[n][:0]
		g.pred = g.pred[: n+1 : cap(g.pred)]
		g.pred[n] = g.pred[n][:0]
	} else {
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
	}
	if len(g.mark) < len(g.names) {
		// A zero mark matches no run: stamps start at 1.
		g.mark = append(g.mark, 0)
	}
	return len(g.names) - 1
}

// AddEdge inserts a directed edge u -> v. Self-loops and duplicate edges
// are rejected; out-of-range indices are an error. Cycles are not detected
// here (that is Validate's job) so construction stays O(1) amortized.
//
// The duplicate check costs O(1) per edge while each source's edges are
// inserted in one consecutive stretch, as in a list grouped by source. A
// source that returns after other sources' edges also scans the shorter
// of its successors from before the return and the target's
// predecessors, never more than HasEdge scans.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.names) || v < 0 || v >= len(g.names) {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, len(g.names))
	}
	if u == v {
		return fmt.Errorf("dag: self-loop on node %d", u)
	}
	if u+1 != g.runFrom {
		g.stamp++
		g.runFrom, g.runBase = u+1, len(g.succ[u])
	}
	// An edge the run added carries its mark; the pred scan cannot meet
	// one, so it finds exactly the edges from before the run.
	if g.mark[v] == g.stamp || linked(g.succ[u][:g.runBase], g.pred[v], u, v) {
		return fmt.Errorf("dag: duplicate edge (%d,%d)", u, v)
	}
	g.mark[v] = g.stamp
	g.invalidateTopo()
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.edges++
	return nil
}

// linked reports whether succ, some of u's successors, holds v or pred,
// v's predecessors, holds u, scanning the shorter list.
func linked(succ, pred []int, u, v int) bool {
	if len(pred) < len(succ) {
		for _, p := range pred {
			if p == u {
				return true
			}
		}
		return false
	}
	for _, s := range succ {
		if s == v {
			return true
		}
	}
	return false
}

// HasEdge reports whether the directed edge u -> v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.names) || v < 0 || v >= len(g.names) {
		return false
	}
	return linked(g.succ[u], g.pred[v], u, v)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Succ returns the successor list of node i. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Succ(i int) []int { return g.succ[i] }

// Pred returns the predecessor list of node i. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Pred(i int) []int { return g.pred[i] }

// InDegree returns the number of incoming edges of node i.
func (g *Graph) InDegree(i int) int { return len(g.pred[i]) }

// OutDegree returns the number of outgoing edges of node i.
func (g *Graph) OutDegree(i int) int { return len(g.succ[i]) }

// TopoOrder returns a topological ordering via Kahn's algorithm, or ErrCycle
// if none exists. Among ready nodes the lowest index is taken first, so the
// ordering is deterministic. The order is computed once and cached until the
// graph mutates; the returned slice is a copy the caller may modify.
func (g *Graph) TopoOrder() ([]int, error) {
	order, _, err := g.topoShared()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), order...), nil
}

// topoShared returns the cached topological order and per-node positions,
// rebuilding them (with the reduced CSR) when the cache is stale. The
// returned slices are shared with the graph and must not be modified; they
// are overwritten in place by the next rebuild after a mutation.
func (g *Graph) topoShared() (order, pos []int, err error) {
	if !g.fresh {
		if err := g.rebuildCache(); err != nil {
			return nil, nil, err
		}
		g.fresh = true
	}
	return g.topo, g.pos, nil
}

// rebuildCache recomputes the topological order, positions and reduced
// CSR into the retained arrays in one Kahn pass. The ready set is a
// binary min-heap on node index, so each pop takes the lowest-index ready
// node — the same order a re-sorted ready list yields, at O(log n) per
// pop. Each popped node's in-edges are reduced on the spot (reducePreds).
func (g *Graph) rebuildCache() error {
	n := len(g.names)
	g.indeg = resize(g.indeg, n)
	g.ready = reserve(g.ready, n)
	// Until compactReduced, redPredOff[v] is the offset of v's spill
	// slot: where v's list would start in a CSR of every in-edge.
	g.redPredOff = resize(g.redPredOff, n+1)
	g.redPredAdj = resize(g.redPredAdj, g.edges)
	off := int32(0)
	for i := 0; i < n; i++ {
		g.redPredOff[i] = off
		off += int32(len(g.pred[i]))
		g.indeg[i] = int32(len(g.pred[i]))
		if g.indeg[i] == 0 {
			// Ascending pushes leave the array sorted, a valid min-heap.
			g.ready = append(g.ready, int32(i))
		}
	}
	words := (n + 63) / 64
	g.anc = resize(g.anc, n*words)
	g.outdeg = resize(g.outdeg, n)
	clear(g.outdeg)
	g.topo = reserve(g.topo, n)
	for len(g.ready) > 0 {
		u := g.popReady()
		g.topo = append(g.topo, u)
		g.reducePreds(u, words)
		for _, v := range g.succ[u] {
			g.indeg[v]--
			if g.indeg[v] == 0 {
				g.pushReady(int32(v))
			}
		}
	}
	if len(g.topo) != n {
		return ErrCycle
	}
	g.pos = resize(g.pos, n)
	for k, u := range g.topo {
		g.pos[u] = k
	}
	g.compactReduced()
	return nil
}

// reducePreds keeps v's non-redundant in-edges, in Pred(v) order, in v's
// spill slot, and fills v's ancestor set. Kahn pops v after every
// predecessor, so each predecessor's ancestor set is complete. Edge
// (p,v) is redundant exactly when p is an ancestor of another
// predecessor of v; since no node is its own ancestor, that is when p is
// in the union of all of v's predecessors' ancestor sets. The union plus
// the predecessors themselves is v's ancestor set. The kept count goes
// to indeg[v], a counter spent once v is ready.
func (g *Graph) reducePreds(v, words int) {
	anc := g.anc
	av := anc[v*words : (v+1)*words]
	clear(av)
	preds := g.pred[v]
	for _, p := range preds {
		ap := anc[p*words : (p+1)*words]
		for w, a := range ap {
			av[w] |= a
		}
	}
	slot := g.redPredAdj[g.redPredOff[v]:]
	kept := 0
	for _, p := range preds {
		// Adding p to the set cannot change the test of another
		// predecessor: each reads its own bit.
		w, bit := &av[p>>6], uint64(1)<<(uint(p)&63)
		if *w&bit == 0 {
			*w |= bit
			slot[kept] = int32(p)
			kept++
			g.outdeg[p]++
		}
	}
	g.indeg[v] = int32(kept)
}

// compactReduced moves the kept in-edge lists from their spill slots
// into node order and inverts them into the successor CSR with a
// counting sort, so both directions agree without re-running the
// redundancy tests.
func (g *Graph) compactReduced() {
	n := len(g.names)
	// Each list moves left or stays put, past every list still to move,
	// and copy handles the overlap.
	end := int32(0)
	for v := 0; v < n; v++ {
		slot, kept := g.redPredOff[v], g.indeg[v]
		g.redPredOff[v] = end
		copy(g.redPredAdj[end:end+kept], g.redPredAdj[slot:slot+kept])
		end += kept
	}
	g.redPredOff[n] = end
	g.redPredAdj = g.redPredAdj[:end]
	g.redSuccOff = resize(g.redSuccOff, n+1)
	outdeg := g.outdeg
	total := int32(0)
	for u := 0; u < n; u++ {
		g.redSuccOff[u] = total
		total += outdeg[u]
	}
	g.redSuccOff[n] = total
	g.redSuccAdj = resize(g.redSuccAdj, int(total))
	fill := outdeg // reuse as per-node fill cursor
	for u := range fill {
		fill[u] = g.redSuccOff[u]
	}
	for v := 0; v < n; v++ {
		for _, p := range g.redPredAdj[g.redPredOff[v]:g.redPredOff[v+1]] {
			g.redSuccAdj[fill[p]] = int32(v)
			fill[p]++
		}
	}
}

// pushReady inserts v into the ready min-heap.
func (g *Graph) pushReady(v int32) {
	g.ready = append(g.ready, v)
	h := g.ready
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

// popReady removes and returns the lowest-index ready node.
func (g *Graph) popReady() int {
	h := g.ready
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	g.ready = h
	p := 0
	for {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	return int(top)
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices. Contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns s emptied with capacity for at least n elements, so the
// appends that refill it never grow it piecemeal.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Validate checks that the graph is acyclic, warming the topo/CSR cache
// as a side effect (without TopoOrder's defensive copy).
func (g *Graph) Validate() error {
	_, _, err := g.topoShared()
	return err
}

// Reachable reports whether v is reachable from u by directed edges.
func (g *Graph) Reachable(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(g.names))
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[x] {
			if s == v {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Clone returns a deep copy of the graph's structure. The clone shares no
// array with its source: its topo/CSR cache starts stale and is built on
// first use (warm it with Validate before sharing the clone between
// goroutines), so rebuilding either graph in place never disturbs the
// other.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		names: append([]string(nil), g.names...),
		succ:  make([][]int, len(g.succ)),
		pred:  make([][]int, len(g.pred)),
		edges: g.edges,
		mark:  make([]uint64, len(g.names)),
	}
	for i := range g.succ {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return c
}
