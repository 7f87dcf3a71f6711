package dag

import (
	"fmt"
	"math"
)

// Eps is the tolerance used when comparing floating-point times for
// criticality decisions. Workflow times in this module are sums of short
// chains of divisions, so 1e-9 is comfortably below any meaningful
// difference and above accumulated rounding error.
const Eps = 1e-9

// EdgeWeight returns the weight (transfer time) of edge u -> v. A nil
// EdgeWeight is treated as uniformly zero, which matches the paper's
// single-datacenter model where intra-cloud transfer time is negligible.
type EdgeWeight func(u, v int) float64

// Timing holds the result of the forward/backward scheduling passes over a
// weighted DAG: the classical earliest start/finish times of every node
// plus the anchor-free tail lengths, from which makespan, latest times,
// slack, and critical paths are derived.
//
// A Timing is bound to the graph structure it was created with; it may be
// refreshed in place with Update (all weights) or UpdateNode (one weight)
// without re-running the topological sort or allocating, which is what the
// greedy schedulers lean on: each of their iterations changes exactly one
// module's execution time.
//
// A Timing aliases its graph's topo-order and reduced-CSR arrays. Mutating
// or resetting the graph rebuilds those arrays in place, so once
// g.Version() differs from its value at NewTiming the Timing reads arrays
// that describe another structure and must be discarded. Long-lived
// holders (scheduler engines, serve workers, campaign scratch) key their
// Timing on the graph pointer and its Version for this reason.
//
// The backward state is the Tail array rather than materialized LST/LFT:
// Tail[u] is anchored at the sinks, not at the makespan, so a makespan
// shift no longer invalidates the whole backward pass — the incremental
// update only re-relaxes nodes whose longest downstream path actually
// changed. LST/LFT/Slack are derived on demand from (Makespan, Tail, EFT).
type Timing struct {
	g *Graph

	// EST and EFT are the earliest start/finish times from the forward
	// pass. Tail[u] is the longest path length from u's finish to the
	// overall end (0 at sinks): the backward pass re-anchored at the
	// sinks instead of the makespan.
	EST, EFT, Tail []float64

	// Makespan is the end-to-end delay: max EFT over all nodes.
	Makespan float64

	order []int // shared with the graph's topo cache; read-only
	pos   []int // pos[u] = index of u in order; read-only
	nodeW []float64
	edgeW EdgeWeight

	// The transitive reduction's CSR, shared with the graph's cache;
	// read-only. The zero-edge-weight relaxation loops iterate these flat
	// arrays. An edge-weighted Timing reads only its sinks from them: its
	// full passes walk g.Pred/g.Succ, which keep every edge to weigh.
	predOff, predAdj []int32
	succOff, succAdj []int32

	scratch []float64 // hypothetical EFT buffer for WhatIfMakespan

	// fdirty/bdirty mark, per epoch, the nodes whose forward (EFT) or
	// backward (Tail) values may move during an incremental pass; nodes
	// not marked provably recompute to bit-identical values and are
	// skipped. Epoch tagging makes clearing free: a new pass just
	// increments epoch.
	fdirty, bdirty []int
	epoch          int

	// sinks lists the nodes with no successors. With zero edge weights EFT
	// is monotone along every edge, so the makespan rescan after an
	// incremental update only needs to look at these.
	sinks []int32

	// sweeps counts the incremental passes, how many of them finished
	// densely, and the nodes they recomputed; only tests read it.
	sweeps sweepCounts
}

// sweepCounts tallies the incremental passes of UpdateNode.
type sweepCounts struct {
	fwd, fwdDense, bwd, bwdDense, relaxed int
}

// NewTiming runs the forward and backward passes over g with the given node
// weights (execution times) and edge weights (transfer times, nil for all
// zero). It returns an error if g is cyclic, if len(nodeW) != g.NumNodes(),
// or if any weight is negative or non-finite. The Timing aliases nodeW;
// callers that mutate it must follow up with Update or UpdateNode.
//
// medcc:coldpath — construction allocates by design; steady-state refresh
// goes through Update/UpdateNode, and rebinding through Reset.
func NewTiming(g *Graph, nodeW []float64, edgeW EdgeWeight) (*Timing, error) {
	t := new(Timing)
	if err := t.Reset(g, nodeW, edgeW); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset rebinds t to graph g with the given weights: afterwards t is
// exactly what NewTiming(g, nodeW, edgeW) returns, but its arrays are
// rebuilt in their existing capacity, so a Timing held across instances
// of different sizes (a scheduler engine, a serve worker) allocates only
// when an instance outgrows every earlier one. It fails like NewTiming;
// a Timing whose Reset failed must be Reset again before use.
//
// medcc:coldpath — a rebind, not a per-iteration refresh: the first use
// and size growth allocate (growTiming, the graph's cache rebuild), a
// warm rebind refills existing capacity.
func (t *Timing) Reset(g *Graph, nodeW []float64, edgeW EdgeWeight) error {
	n := g.NumNodes()
	if err := checkWeights(nodeW, n); err != nil {
		return err
	}
	order, pos, err := g.topoShared()
	if err != nil {
		return err
	}
	if cap(t.EST) < n {
		t.growTiming(n)
	}
	// The dirty marks keep their values: they are compared with epochs
	// that only grow, so marks left by an earlier binding never match.
	t.EST, t.EFT, t.Tail, t.scratch = t.EST[:n], t.EFT[:n], t.Tail[:n], t.scratch[:n]
	t.fdirty, t.bdirty = t.fdirty[:n], t.bdirty[:n]
	t.g, t.order, t.pos, t.nodeW, t.edgeW = g, order, pos, nodeW, edgeW
	// With zero transfer times the relaxations over the transitive
	// reduction produce bit-identical EST/EFT/Tail (see Graph.redPredOff),
	// at a fraction of the edge work on dense graphs.
	t.predOff, t.predAdj = g.redPredOff, g.redPredAdj
	t.succOff, t.succAdj = g.redSuccOff, g.redSuccAdj
	// The reduction keeps an out-edge of every node that has one, so its
	// sinks are the graph's.
	t.sinks = t.sinks[:0]
	for u := 0; u < n; u++ {
		if t.succOff[u] == t.succOff[u+1] {
			t.sinks = append(t.sinks, int32(u))
		}
	}
	t.run()
	return nil
}

// growTiming allocates the per-node arrays for a new high-water node
// count.
//
// medcc:coldpath
func (t *Timing) growTiming(n int) {
	t.EST = make([]float64, n)
	t.EFT = make([]float64, n)
	t.Tail = make([]float64, n)
	t.scratch = make([]float64, n)
	t.fdirty = make([]int, n)
	t.bdirty = make([]int, n)
	t.sinks = make([]int32, 0, n)
}

func checkWeights(nodeW []float64, n int) error {
	if len(nodeW) != n {
		return fmt.Errorf("dag: %d node weights for %d nodes", len(nodeW), n)
	}
	for i, w := range nodeW {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("dag: invalid weight %v on node %d", w, i)
		}
	}
	return nil
}

// Update replaces the node weights and recomputes all times in place with
// zero allocations. nodeW is validated like in NewTiming and aliased by the
// Timing afterwards; passing the slice the Timing already holds (after
// mutating it) is the intended steady-state use.
//
// medcc:allocfree
func (t *Timing) Update(nodeW []float64) error {
	if err := checkWeights(nodeW, t.g.NumNodes()); err != nil {
		return err
	}
	t.nodeW = nodeW
	t.run()
	return nil
}

// UpdateNode sets the weight of node i to w, recomputes the times in place
// without allocating, and reports whether the makespan moved (bit-exact).
// Nodes before i's topological position keep their EST/EFT (they cannot
// reach i); within the suffix, only nodes whose start time can actually
// move are re-relaxed: a moved EFT marks a successor only when it was, or
// now is, at least the successor's start time, so a change that stays
// below the dominating predecessor is absorbed on the spot. The backward
// pass mirrors this over the prefix for the Tail lengths — and because
// Tail is anchored at the sinks rather than the makespan, a makespan shift
// does not by itself re-relax the prefix. Skipped nodes would recompute
// to bit-identical values, so the result is exactly that of a fresh pass.
//
// Each pass stays sparse only while the change stays local: once it has
// visited at least two positions and more than half of them were dirty,
// it recomputes the rest of its range with the full pass's kernel, with
// no dirty tests or marks (see relaxEFT). On the paper's random DAGs a
// Critical-Greedy step moves most nodes, so most passes finish densely;
// on wide or sparse DAGs a step stays local and the passes stay sparse.
//
// The incremental passes assume zero edge weights, the paper's
// single-datacenter model; a Timing built with edge weights re-runs both
// full passes instead.
//
// w must be non-negative and finite, as enforced by NewTiming/Update for
// whole slices; UpdateNode is the per-iteration hot path and does not
// re-validate.
//
// medcc:allocfree
// medcc:floateq-exact — the no-op check, the moved/absorbed checks, and
// the makespan-moved result must be bit-exact: epsilon slop would skip
// re-relaxations whose exact results differ, breaking the "identical to a
// fresh pass" contract.
func (t *Timing) UpdateNode(i int, w float64) (mkChanged bool) {
	if t.nodeW[i] == w {
		return false
	}
	old := t.Makespan
	wOld := t.nodeW[i]
	t.nodeW[i] = w
	if t.edgeW != nil {
		t.run()
		return t.Makespan != old
	}
	p := t.pos[i]
	t.epoch++
	t.fdirty[i] = t.epoch
	t.relaxEFT(p)
	// Zero edge weights keep EFT monotone along edges, so the max is
	// attained at a sink.
	mk := 0.0
	for _, u := range t.sinks {
		if f := t.EFT[u]; f > mk {
			mk = f
		}
	}
	t.Makespan = mk
	// Backward: node i's own Tail only depends on downstream weights, but
	// its contribution w + Tail[i] to each predecessor changed. Seed the
	// dirty set with the predecessors the old or new contribution could
	// dominate and re-relax the prefix.
	t.seedTail(i, wOld, w)
	t.relaxTail(p - 1)
	return mk != old
}

// seedTail marks the predecessors of i whose Tail can move after i's
// weight changed from wOld to wNew.
//
// medcc:floateq-exact — see relaxEFT.
func (t *Timing) seedTail(i int, wOld, wNew float64) {
	ep := t.epoch
	tail, bdirty := t.Tail, t.bdirty
	cOld := wOld + tail[i]
	cNew := wNew + tail[i]
	for _, q := range t.predAdj[t.predOff[i]:t.predOff[i+1]] {
		if cOld < tail[q] && cNew < tail[q] {
			continue // absorbed: i neither was nor becomes q's argmax
		}
		bdirty[q] = ep
	}
}

// relaxEFT is the forward re-relaxation of order[p:]. Only nodes marked
// dirty in the current epoch are recomputed, and a node's successors are
// marked only when its EFT moved in a way the successor could see: the old
// or new finish time reaches the successor's start time. Changes absorbed
// below the dominating predecessor propagate no further.
//
// When a dirty node brings the dirty share of the positions visited so
// far above one half, after at least two positions, the change is
// spreading: the pass hands that node and the rest of the suffix to
// forwardZero, which recomputes every node without testing or setting a
// mark. That is exact: every predecessor of the handed-over range is
// final by then (earlier positions are recomputed or provably unchanged,
// later ones are recomputed in order), and a node recomputed from
// unchanged inputs gets the same bits, since max is exact and its finish
// is one addition.
//
// medcc:floateq-exact — "moved" means bit-exact inequality; skipped nodes
// must recompute to identical values.
func (t *Timing) relaxEFT(p int) {
	// Everything is hoisted into locals: the loop stores through slices, so
	// without locals the compiler reloads each field every iteration.
	ep := t.epoch
	fdirty, est, eft, nodeW := t.fdirty, t.EST, t.EFT, t.nodeW
	po, pa := t.predOff, t.predAdj
	so, sa := t.succOff, t.succAdj
	order := t.order
	t.sweeps.fwd++
	dirty := 0
	for k := p; k < len(order); k++ {
		u := order[k]
		if fdirty[u] != ep {
			continue
		}
		// The dirty share only rises at a dirty node, so testing here
		// catches the first position where it exceeds one half.
		dirty++
		if k > p && 2*dirty > k-p+1 {
			forwardZero(order[k:], po, pa, nodeW, est, eft)
			t.sweeps.fwdDense++
			t.sweeps.relaxed += dirty - 1 + len(order) - k
			return
		}
		start := 0.0
		for _, q := range pa[po[u]:po[u+1]] {
			if a := eft[q]; a > start {
				start = a
			}
		}
		est[u] = start
		if f := start + nodeW[u]; f != eft[u] {
			fOld := eft[u]
			eft[u] = f
			for _, v := range sa[so[u]:so[u+1]] {
				if fOld < est[v] && f < est[v] {
					continue // absorbed below v's dominating predecessor
				}
				fdirty[v] = ep
			}
		}
	}
	t.sweeps.relaxed += dirty
}

// relaxTail re-relaxes the Tail lengths for positions hi down to 0,
// recomputing a node only when marked dirty (a successor's contribution
// moved across its Tail); its predecessors are marked in turn only when
// the recomputed Tail differs and the contribution could dominate.
// Skipped nodes would recompute to bit-identical values. Like relaxEFT,
// it hands the rest of its range, order[:k+1], to the full pass's kernel
// (tailZero) once more than half of at least two visited positions were
// dirty.
//
// medcc:floateq-exact — see relaxEFT.
func (t *Timing) relaxTail(hi int) {
	ep := t.epoch
	bdirty, tail, nodeW := t.bdirty, t.Tail, t.nodeW
	po, pa := t.predOff, t.predAdj
	so, sa := t.succOff, t.succAdj
	order := t.order
	t.sweeps.bwd++
	dirty := 0
	for k := hi; k >= 0; k-- {
		u := order[k]
		if bdirty[u] != ep {
			continue
		}
		dirty++
		if k < hi && 2*dirty > hi-k+1 {
			tailZero(order[:k+1], so, sa, nodeW, tail)
			t.sweeps.bwdDense++
			t.sweeps.relaxed += dirty + k
			return
		}
		mx := 0.0
		for _, s := range sa[so[u]:so[u+1]] {
			if c := nodeW[s] + tail[s]; c > mx {
				mx = c
			}
		}
		if mx != tail[u] {
			cOld := nodeW[u] + tail[u]
			tail[u] = mx
			cNew := nodeW[u] + mx
			for _, q := range pa[po[u]:po[u+1]] {
				if cOld < tail[q] && cNew < tail[q] {
					continue
				}
				bdirty[q] = ep
			}
		}
	}
	t.sweeps.relaxed += dirty
}

// run executes the full forward and backward passes.
func (t *Timing) run() {
	g := t.g
	// Forward pass: a module cannot start until all input data arrive,
	// and a dependency edge cannot start transfer until its source
	// finishes (the paper's precedence constraints).
	if t.edgeW == nil {
		t.Makespan = forwardZero(t.order, t.predOff, t.predAdj, t.nodeW, t.EST, t.EFT)
	} else {
		t.Makespan = 0
		for _, u := range t.order {
			start := 0.0
			for _, p := range g.pred[u] {
				if a := t.EFT[p] + t.edgeW(p, u); a > start {
					start = a
				}
			}
			t.EST[u] = start
			t.EFT[u] = start + t.nodeW[u]
			if t.EFT[u] > t.Makespan {
				t.Makespan = t.EFT[u]
			}
		}
	}
	t.tailDense()
}

// forwardZero is the forward pass with zero edge weights over a
// topological order: each node starts when the last of its predecessors
// in the CSR (po, pa) finishes. It fills eft, and est unless est is nil,
// and returns the makespan, the largest finish time. Timing.run,
// Graph.Makespan and relaxEFT's dense finish share it, so their finish
// times agree bit for bit.
func forwardZero(order []int, po, pa []int32, nodeW, est, eft []float64) float64 {
	mk := 0.0
	for _, u := range order {
		start := 0.0
		for _, q := range pa[po[u]:po[u+1]] {
			if a := eft[q]; a > start {
				start = a
			}
		}
		if est != nil {
			est[u] = start
		}
		f := start + nodeW[u]
		eft[u] = f
		if f > mk {
			mk = f
		}
	}
	return mk
}

// tailZero is the backward pass with zero edge weights over a topological
// order, last node first: each node's Tail is the largest weight plus
// Tail among its successors in the CSR (so, sa), 0 at a sink. Timing.run
// and relaxTail's dense finish share it, so their Tails agree bit for
// bit.
func tailZero(order []int, so, sa []int32, nodeW, tail []float64) {
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		mx := 0.0
		for _, s := range sa[so[u]:so[u+1]] {
			if c := nodeW[s] + tail[s]; c > mx {
				mx = c
			}
		}
		tail[u] = mx
	}
}

// Makespan returns the end-to-end delay of g under node weights nodeW and
// zero edge weights. It runs only the forward pass of NewTiming(g, nodeW,
// nil), over the same cached topological order and reduced CSR and with
// the same loop, so the result is bit-identical to that Timing's
// Makespan; nothing derived from g outlives the call. eft is scratch for
// the finish times, grown when shorter than the node count and returned
// for reuse. Makespan fails like NewTiming: on a cycle, on a weight slice
// of the wrong length, and on a negative or non-finite weight.
//
// medcc:allocfree — the cache rebuild of a mutated graph and the growth
// of eft run in makespanScratch.
func (g *Graph) Makespan(nodeW, eft []float64) (float64, []float64, error) {
	n := len(g.names)
	if err := checkWeights(nodeW, n); err != nil {
		return 0, eft, err
	}
	if !g.fresh || cap(eft) < n {
		var err error
		if eft, err = g.makespanScratch(eft); err != nil {
			return 0, eft, err
		}
	}
	eft = eft[:n]
	return forwardZero(g.topo, g.redPredOff, g.redPredAdj, nodeW, nil, eft), eft, nil
}

// makespanScratch rebuilds a stale topo/CSR cache and grows eft to the
// node count.
//
// medcc:coldpath — runs once per structural change and per new
// high-water node count.
func (g *Graph) makespanScratch(eft []float64) ([]float64, error) {
	if _, _, err := g.topoShared(); err != nil {
		return eft, err
	}
	return resize(eft, len(g.names)), nil
}

// tailDense runs the dense backward pass filling Tail for every node.
func (t *Timing) tailDense() {
	if t.edgeW == nil {
		tailZero(t.order, t.succOff, t.succAdj, t.nodeW, t.Tail)
		return
	}
	// Locals, because the EdgeWeight call would otherwise make the loop
	// reload each field at every edge.
	tail, nodeW, edgeW := t.Tail, t.nodeW, t.edgeW
	succ, order := t.g.succ, t.order
	for k := len(order) - 1; k >= 0; k-- {
		u := order[k]
		mx := 0.0
		for _, s := range succ[u] {
			if c := edgeW(u, s) + nodeW[s] + tail[s]; c > mx {
				mx = c
			}
		}
		tail[u] = mx
	}
}

// WhatIfMakespan returns the makespan the DAG would have if node i had
// weight w, leaving the Timing as it was and without allocating. It is
// the trial-move primitive of the makespan-aware schedulers (GAIN2,
// LOSS2, DeadlineLoss): one call costs a forward re-relaxation of the
// affected part of the topo-order suffix from i instead of a full fresh
// Timing. A Timing built with edge weights probes with a full pass
// instead and then restores its state with a second one.
//
// medcc:allocfree
// medcc:floateq-exact — dirty propagation mirrors relaxEFT and must use
// bit-exact comparison for the same reason.
func (t *Timing) WhatIfMakespan(i int, w float64) float64 {
	if t.nodeW[i] == w {
		return t.Makespan
	}
	if t.edgeW != nil {
		// Every update of an edge-weighted Timing is a full pass, so
		// re-running one on the old weights restores every value bit for
		// bit.
		wOld := t.nodeW[i]
		t.nodeW[i] = w
		t.run()
		mk := t.Makespan
		t.nodeW[i] = wOld
		t.run()
		return mk
	}
	p := t.pos[i]
	t.epoch++
	t.fdirty[i] = t.epoch
	ep := t.epoch
	fdirty, est, eft, nodeW := t.fdirty, t.EST, t.EFT, t.nodeW
	po, pa := t.predOff, t.predAdj
	so, sa := t.succOff, t.succAdj
	scratch := t.scratch
	for _, u := range t.order[p:] {
		if fdirty[u] != ep {
			continue
		}
		start := 0.0
		for _, q := range pa[po[u]:po[u+1]] {
			f := eft[q]
			if fdirty[q] == ep {
				f = scratch[q]
			}
			if f > start {
				start = f
			}
		}
		nw := nodeW[u]
		if u == i {
			nw = w
		}
		v := start + nw
		scratch[u] = v
		if v != eft[u] {
			for _, s := range sa[so[u]:so[u+1]] {
				if eft[u] < est[s] && v < est[s] {
					continue // absorbed below s's dominating predecessor
				}
				fdirty[s] = ep
			}
		}
	}
	// Zero edge weights keep the hypothetical EFT monotone along edges, so
	// the max is attained at a sink.
	mk := 0.0
	for _, u := range t.sinks {
		f := eft[u]
		if fdirty[u] == ep {
			f = scratch[u]
		}
		if f > mk {
			mk = f
		}
	}
	return mk
}

// Slack returns the buffer time of node i: the amount its execution can be
// delayed without affecting the end-to-end delay. It is evaluated as
// (Makespan - Tail[i]) - EFT[i]; all criticality decisions in this repo
// derive from this one expression so they agree bit-for-bit.
func (t *Timing) Slack(i int) float64 { return t.Makespan - t.Tail[i] - t.EFT[i] }

// IsCritical reports whether node i has zero buffer time.
func (t *Timing) IsCritical(i int) bool { return t.Slack(i) <= Eps }
