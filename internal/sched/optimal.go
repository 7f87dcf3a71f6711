package sched

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"medcc/internal/workflow"
)

// Optimal solves MED-CC exactly by parallel branch-and-bound over all type
// assignments. MED-CC is NP-complete (Theorem 1 of the paper), so this is
// only practical for the small instances of the paper's optimality study
// and its extended sizes (m <= ~14, n = 3); the MaxNodes guard keeps
// runaway instances from hanging.
//
// The search explores, per schedulable module, only the dominance-pruned
// (TE, CE) type options in TE-ascending order, so the first leaf of every
// subtree is its all-fastest completion — a strong incumbent. With more
// than one worker the top levels of the tree are expanded into independent
// subtree tasks; workers own their scratch (engine, timing, partial
// schedule), share only an atomic incumbent-makespan bound, and a final
// reduction in subtree order picks the unique optimum under the total
// order (lowest MED, then lowest cost, then first in DFS order), so a
// search that completes (Truncated false) returns a result bit-identical
// to the sequential DFS regardless of worker count or interleaving. A
// search cut short by MaxNodes returns the best incumbent found so far,
// which with more than one worker depends on how the workers interleaved.
type Optimal struct {
	// MaxNodes bounds the number of search nodes expanded; 0 means the
	// default of 50 million. Workers draw node quota from the shared
	// budget in chunks of 256, so expansion stops within one chunk per
	// worker of the limit. When the limit is hit the best incumbent found
	// so far (possibly non-optimal, but always budget-feasible) is
	// returned and Truncated is set.
	MaxNodes int64

	// Workers sets the branch-and-bound fan-out: 0 picks GOMAXPROCS and
	// falls back to a single worker when the pruned search tree is too
	// small to amortize goroutine startup; any positive value is used as
	// given (1 forces the sequential DFS). The schedule returned is the
	// same for every setting when the search completes; a truncated
	// search is reproducible only with Workers = 1.
	Workers int

	// Truncated reports whether the last Schedule call hit MaxNodes and
	// returned a possibly suboptimal (but feasible) incumbent. Expanded
	// is the number of search nodes the last call expanded.
	Truncated bool
	Expanded  int64

	// eng is the coordinator's engine scratch: feasibility, the incumbent
	// seed's makespan, and the timing whose construction also pre-warms
	// the graph's shared topo/CSR caches before worker fan-out.
	eng engine

	// cg computes the Critical-Greedy schedule used as the incumbent
	// seed: it is near-optimal, so the search starts with a bound that
	// prunes most of the tree before the first leaf. The seed is just the
	// first candidate under the exact total order — any leaf with lower
	// MED, or equal MED at strictly lower cost, still replaces it — so
	// seeding changes no result, only how fast the proof closes.
	cg    *Greedy
	seedS workflow.Schedule

	// Per-position search tables, rebuilt each call into reused storage:
	// for schedulable position k, the dominance-pruned type options live
	// in optIdx[optOff[k]:optOff[k+1]], sorted by TE ascending (ties by
	// CE, then type index) — for surviving options TE ascending means CE
	// strictly descending. optTE/optCE mirror the option times and costs;
	// suffixMin[k] is the cheapest possible cost of positions k..end.
	optIdx       []int
	optTE, optCE []float64
	optOff       []int
	suffixMin    []float64

	sh    bbShared
	ws    []obWorker
	bestS workflow.Schedule // incumbent (returned schedule)
}

// Name implements Scheduler.
func (o *Optimal) Name() string { return "optimal" }

// WasTruncated implements TruncationReporter.
func (o *Optimal) WasTruncated() bool { return o.Truncated }

// bbShared is the per-solve state shared by the branch-and-bound workers.
// The plain fields are written by the coordinator before fan-out and only
// read by workers; cross-worker coordination goes through the atomics, and
// every task slot is written by exactly the worker that claimed the task.
type bbShared struct {
	mods   []int
	budget float64

	optIdx       []int
	optTE, optCE []float64
	optOff       []int
	suffixMin    []float64

	split    int // frontier depth: positions [0,split) are task prefixes
	ntasks   int
	expLimit int64

	// bestBits holds math.Float64bits of the best feasible makespan seen
	// by any worker; it only ever decreases, and every worker prunes
	// against it. nextTask hands out frontier tasks; expanded/stopped
	// implement the shared MaxNodes budget.
	bestBits atomic.Uint64
	nextTask atomic.Int64
	expanded atomic.Int64
	stopped  atomic.Bool

	// Per-task candidate slots: the best leaf of subtree t under the
	// (MED, cost, first-found) order, or +Inf when the subtree has no
	// feasible leaf. Read by the coordinator only after all workers join.
	taskMED, taskCost []float64
	taskSched         []workflow.Schedule
}

// obWorker is the per-goroutine scratch of one branch-and-bound worker: a
// private engine (incremental timing bound under the invariant "assigned
// prefix, fastest types for the unassigned suffix"), the partial schedule
// being explored, the applied frontier-prefix ranks, and the local node
// quota drawn from the shared expansion budget. Exactly one goroutine owns
// each instance for the duration of a solve.
//
// medcc:scratch
type obWorker struct {
	eng  engine
	cur  workflow.Schedule
	rank []int // option rank currently applied at positions [0,split)

	quota     int64
	med, cost float64           // local incumbent of the current task
	out       workflow.Schedule // aliases the claimed task's schedule slot
	err       error
}

// Schedule implements Scheduler. It returns a schedule with the minimum
// makespan among all schedules of cost <= budget; ties are broken toward
// lower cost, then toward the first such schedule in DFS order.
func (o *Optimal) Schedule(w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	return o.ScheduleInto(nil, w, m, budget)
}

// defaultMaxNodes is the expansion budget when MaxNodes is zero.
const defaultMaxNodes = 50_000_000

// parallelMinTree is the smallest pruned-tree size (product of per-module
// option counts) worth fanning out when Workers is auto (0): below it the
// sequential DFS finishes faster than goroutine startup.
const parallelMinTree = 1024

// maxFrontierTasks caps the frontier split so task bookkeeping stays
// negligible next to subtree work.
const maxFrontierTasks = 4096

// ScheduleInto implements IntoScheduler: the search runs in reused scratch
// (per-worker engines, option tables, task slots), so repeated solves of
// the same instance are allocation-free in steady state on the sequential
// path and allocate only the goroutine fan-out when parallel.
//
// medcc:deterministic — the parallel frontier split merges results in
// task order, so the chosen optimum is schedule-order independent
func (o *Optimal) ScheduleInto(dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64) (workflow.Schedule, error) {
	e := &o.eng
	e.bind(w, m)
	if err := e.feasible(budget); err != nil {
		return nil, err
	}
	lc := e.lc
	treeSize := o.buildBounds()

	// Incumbent seed: the Critical-Greedy schedule, budget-feasible by
	// construction and near-optimal in MED, so the search opens with a
	// bound that already prunes most of the tree. Its makespan comes from
	// the coordinator timing, which also pre-warms the graph's shared topo
	// order and CSR arrays so the worker goroutines only ever read them.
	if o.cg == nil {
		o.cg = CriticalGreedy()
	}
	seed, err := o.cg.ScheduleInto(o.seedS, w, m, budget)
	if err != nil {
		seed = lc // cannot happen after the feasibility check; stay safe
	} else {
		o.seedS = seed
	}
	if err := e.resetTiming(seed); err != nil {
		return nil, err
	}
	seedMED, seedCost := e.t.Makespan, m.Cost(seed)

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if treeSize < parallelMinTree {
			workers = 1
		}
	}

	sh := &o.sh
	sh.mods = e.mods
	sh.budget = budget
	sh.optIdx, sh.optTE, sh.optCE, sh.optOff = o.optIdx, o.optTE, o.optCE, o.optOff
	sh.suffixMin = o.suffixMin
	sh.expLimit = o.MaxNodes
	if sh.expLimit == 0 {
		sh.expLimit = defaultMaxNodes
	}
	sh.bestBits.Store(math.Float64bits(seedMED))
	sh.nextTask.Store(0)
	sh.expanded.Store(0)
	sh.stopped.Store(false)
	o.planFrontier(workers, len(lc))

	if cap(o.ws) < workers {
		o.ws = make([]obWorker, workers)
	}
	o.ws = o.ws[:workers]

	if workers == 1 {
		ws := &o.ws[0]
		ws.err = ws.solve(sh, w, m, lc)
	} else {
		// The goroutine closures capture only the plain run func and the
		// wait group; each worker reaches its own scratch through its
		// index, so no medcc:scratch value crosses the goroutine boundary.
		run := func(wk int) {
			ws := &o.ws[wk]
			ws.err = ws.solve(sh, w, m, lc)
		}
		var wg sync.WaitGroup
		for wk := 1; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				run(wk)
			}(wk)
		}
		run(0)
		wg.Wait()
	}
	for wk := range o.ws {
		if err := o.ws[wk].err; err != nil {
			return nil, err
		}
	}

	// Deterministic reduction: fold the seed and the per-task candidates
	// in frontier order under the exact total order (lowest MED, then
	// lowest cost, then first in DFS order). Frontier order IS sequential
	// DFS order, so the winner is the schedule the one-worker DFS
	// returns, independent of how tasks were interleaved.
	bestMED, bestCost, bestIdx := seedMED, seedCost, -1
	for t := 0; t < sh.ntasks; t++ {
		med := sh.taskMED[t]
		if med > bestMED {
			continue
		}
		if med < bestMED || sh.taskCost[t] < bestCost {
			bestMED, bestCost, bestIdx = med, sh.taskCost[t], t
		}
	}

	if len(dst) == len(lc) {
		o.bestS = dst
	} else if len(o.bestS) != len(lc) {
		o.bestS = make(workflow.Schedule, len(lc))
	}
	if bestIdx >= 0 {
		copy(o.bestS, sh.taskSched[bestIdx])
	} else {
		copy(o.bestS, seed)
	}
	o.Truncated = sh.stopped.Load()
	o.Expanded = sh.expanded.Load()
	return o.bestS, nil
}

// buildBounds fills the per-position option tables from the matrices and
// returns the pruned search-tree size (product of option counts, saturated
// at parallelMinTree*maxFrontierTasks). For each schedulable module the
// types are sorted by (TE, CE, index) ascending and a sweep keeps only the
// Pareto frontier — a type survives iff no other type is at least as fast
// and at least as cheap (exact ties keep the lowest index). A dropped type
// can never improve the optimum: replacing it with its dominator never
// raises the makespan or the cost, so the (MED, cost) optimum over the
// pruned tree equals the optimum over the full tree.
func (o *Optimal) buildBounds() int64 {
	e := &o.eng
	m := e.m
	mods := e.mods
	n := len(m.Catalog)
	np := len(mods)
	if cap(o.optOff) < np+1 {
		o.optOff = make([]int, np+1)
		o.suffixMin = make([]float64, np+1)
	}
	o.optOff = o.optOff[:np+1]
	o.suffixMin = o.suffixMin[:np+1]
	if cap(o.optIdx) < np*n {
		o.optIdx = make([]int, np*n)
		o.optTE = make([]float64, np*n)
		o.optCE = make([]float64, np*n)
	}
	o.optIdx = o.optIdx[:np*n]
	o.optTE = o.optTE[:np*n]
	o.optCE = o.optCE[:np*n]

	const sizeCap = int64(parallelMinTree) * maxFrontierTasks
	tree := int64(1)
	off := 0
	for k, i := range mods {
		o.optOff[k] = off
		te, ce := m.TE[i], m.CE[i]
		// Insertion sort of the type indices by (TE, CE, index): n is a
		// single-digit catalog size, and in-place insertion keeps the
		// steady-state path allocation-free.
		idx := o.optIdx[off : off : off+n]
		for j := 0; j < n; j++ {
			p := len(idx)
			idx = idx[:p+1]
			for p > 0 {
				q := idx[p-1]
				if te[q] < te[j] || (te[q] <= te[j] && ce[q] <= ce[j]) {
					break
				}
				idx[p] = q
				p--
			}
			idx[p] = j
		}
		// Pareto sweep: with TE ascending, a type survives iff its CE is
		// strictly below every faster type's CE.
		w := off
		bestCE := math.Inf(1)
		for _, j := range idx {
			if ce[j] < bestCE {
				o.optIdx[w] = j
				o.optTE[w] = te[j]
				o.optCE[w] = ce[j]
				bestCE = ce[j]
				w++
			}
		}
		if cnt := int64(w - off); tree < sizeCap {
			tree *= cnt
		}
		off = w
	}
	o.optOff[np] = off

	// suffixMin[k] = cheapest completion cost of positions k..end; with CE
	// strictly descending over each option run, the minimum is the last
	// surviving option's cost.
	o.suffixMin[np] = 0
	for k := np - 1; k >= 0; k-- {
		o.suffixMin[k] = o.suffixMin[k+1] + o.optCE[o.optOff[k+1]-1]
	}
	if tree > sizeCap {
		tree = sizeCap
	}
	return tree
}

// planFrontier picks the frontier depth: enough top levels that every
// worker sees several independent subtrees (work stealing via the shared
// task counter balances uneven pruning), capped so task bookkeeping stays
// cheap. One worker means no split — a single task spanning the whole
// tree, i.e. the plain sequential DFS.
func (o *Optimal) planFrontier(workers, nm int) {
	sh := &o.sh
	sh.split, sh.ntasks = 0, 1
	if workers > 1 {
		want := 8 * workers
		for sh.split < len(sh.mods) && sh.ntasks < want {
			next := sh.ntasks * (sh.optOff[sh.split+1] - sh.optOff[sh.split])
			if next > maxFrontierTasks {
				break
			}
			sh.ntasks = next
			sh.split++
		}
	}
	if cap(sh.taskMED) < sh.ntasks {
		sh.taskMED = make([]float64, sh.ntasks)
		sh.taskCost = make([]float64, sh.ntasks)
	}
	sh.taskMED = sh.taskMED[:sh.ntasks]
	sh.taskCost = sh.taskCost[:sh.ntasks]
	for t := range sh.taskMED {
		sh.taskMED[t] = math.Inf(1)
		sh.taskCost[t] = math.Inf(1)
	}
	if cap(sh.taskSched) < sh.ntasks {
		next := make([]workflow.Schedule, sh.ntasks)
		copy(next, sh.taskSched[:cap(sh.taskSched)])
		sh.taskSched = next
	}
	sh.taskSched = sh.taskSched[:sh.ntasks]
	for t := range sh.taskSched {
		if len(sh.taskSched[t]) != nm {
			sh.taskSched[t] = make(workflow.Schedule, nm)
		}
	}
}

// solve is one worker's share of a solve: bind the private engine, reset
// the timing to the all-fastest completion of the least-cost base, then
// claim frontier tasks off the shared counter until none remain.
func (ws *obWorker) solve(sh *bbShared, w *workflow.Workflow, m *workflow.Matrices, lc workflow.Schedule) error {
	e := &ws.eng
	e.bind(w, m)
	if len(ws.cur) != len(lc) {
		ws.cur = make(workflow.Schedule, len(lc))
	}
	copy(ws.cur, lc)
	for k, i := range sh.mods {
		ws.cur[i] = sh.optIdx[sh.optOff[k]]
	}
	if err := e.resetTiming(ws.cur); err != nil {
		return err
	}
	if cap(ws.rank) < sh.split {
		ws.rank = make([]int, sh.split)
	}
	ws.rank = ws.rank[:sh.split]
	for k := range ws.rank {
		ws.rank[k] = 0
	}
	for {
		t := sh.nextTask.Add(1) - 1
		if t >= int64(sh.ntasks) {
			break
		}
		ws.runTask(sh, int(t))
	}
	// Hand unspent node quota back so Expanded reports actual expansions.
	sh.expanded.Add(-ws.quota)
	ws.quota = 0
	return nil
}

// runTask applies frontier task t's prefix (diffing against the ranks this
// worker already has applied, so consecutive tasks re-relax only changed
// positions), prunes it against the budget and the shared incumbent, and
// runs the subtree DFS below it.
func (ws *obWorker) runTask(sh *bbShared, t int) {
	e := &ws.eng
	x := t
	for k := sh.split - 1; k >= 0; k-- {
		lo := sh.optOff[k]
		radix := sh.optOff[k+1] - lo
		r := x % radix
		x /= radix
		if ws.rank[k] != r {
			i := sh.mods[k]
			ws.cur[i] = sh.optIdx[lo+r]
			e.t.UpdateNode(i, sh.optTE[lo+r])
			ws.rank[k] = r
		}
	}
	// Budget bound over the prefix, checked level by level exactly like
	// the DFS branch loop would: the first level that cannot finish within
	// budget prunes this subtree.
	cost := 0.0
	for k := 0; k < sh.split; k++ {
		cost += sh.optCE[sh.optOff[k]+ws.rank[k]]
		if cost+sh.suffixMin[k+1] > sh.budget+costEps {
			return
		}
	}
	ws.med, ws.cost = math.Inf(1), math.Inf(1)
	ws.out = sh.taskSched[t]
	ws.dfs(sh, sh.split, cost)
	sh.taskMED[t], sh.taskCost[t] = ws.med, ws.cost
}

// dfs explores assignments for positions depth.. with the partial cost of
// the assigned prefix, recording the subtree's best leaf under the exact
// (MED, cost, first-found) order. The timing is maintained under the
// invariant "assigned prefix of cur, fastest types for the unassigned
// suffix", so t.Makespan is always a lower bound — and at a leaf the exact
// makespan — without a full DAG pass per node. Bounds are exact (strict
// float comparisons): a node is cut only when every leaf below it provably
// loses, so the surviving optimum is independent of exploration order and
// of the shared bound's arrival timing.
//
// medcc:allocfree
func (ws *obWorker) dfs(sh *bbShared, depth int, cost float64) {
	if !ws.takeNode(sh) {
		return
	}
	e := &ws.eng
	bnd := ws.med
	if g := math.Float64frombits(sh.bestBits.Load()); g < bnd {
		bnd = g
	}
	mk := e.t.Makespan
	if mk > bnd {
		return // even the all-fastest completion loses to the incumbent
	}
	if depth == len(sh.mods) {
		// The suffix is empty: mk is exactly cur's makespan, and mk <=
		// bnd <= ws.med here, so the leaf wins on lower MED or on equal
		// MED at strictly lower cost.
		if mk < ws.med || cost < ws.cost {
			ws.med, ws.cost = mk, cost
			copy(ws.out, ws.cur)
			publishBest(&sh.bestBits, mk)
		}
		return
	}
	i := sh.mods[depth]
	// Critical path through i: EST[i] cannot drop and the i-to-exit tail
	// (Tail[i], which excludes i's own duration) cannot shrink when the
	// suffix slows down, so est+TE+tail lower-bounds every leaf below a
	// branch; with options TE-ascending, the first hopeless branch ends
	// the level.
	est := e.t.EST[i]
	tail := e.t.Tail[i]
	lo, hi := sh.optOff[depth], sh.optOff[depth+1]
	rem := sh.suffixMin[depth+1]
	if depth+1 == len(sh.mods) {
		// Last position: every child is a leaf, so evaluate the options
		// with non-mutating trial probes instead of UpdateNode+recursion.
		// Surviving options have strictly ascending TE, so the makespan is
		// non-decreasing and the cost strictly decreasing across r: the
		// node's best leaf under the (MED, cost) order is the cheapest
		// option on the minimum-makespan plateau — exactly what the
		// recursive leaf rule would keep.
		bestR, bestMk := -1, 0.0
		for r := lo; r < hi; r++ {
			if cost+sh.optCE[r]+rem > sh.budget+costEps {
				continue // over budget; later options are strictly cheaper
			}
			if est+sh.optTE[r]+tail > bnd {
				break
			}
			mk2 := e.t.WhatIfMakespan(i, sh.optTE[r])
			if mk2 > bnd || (bestR >= 0 && mk2 > bestMk) {
				break // makespan only grows from here
			}
			bestR, bestMk = r, mk2
		}
		if bestR >= 0 {
			// bestMk <= bnd <= ws.med here, so the candidate wins on lower
			// MED or on equal MED at strictly lower cost.
			c2 := cost + sh.optCE[bestR]
			if bestMk < ws.med || c2 < ws.cost {
				ws.med, ws.cost = bestMk, c2
				copy(ws.out, ws.cur)
				ws.out[i] = sh.optIdx[bestR]
				publishBest(&sh.bestBits, bestMk)
			}
		}
		return
	}
	for r := lo; r < hi; r++ {
		c2 := cost + sh.optCE[r]
		if c2+rem > sh.budget+costEps {
			continue // over budget; later options are strictly cheaper
		}
		if est+sh.optTE[r]+tail > bnd {
			break
		}
		ws.cur[i] = sh.optIdx[r]
		e.t.UpdateNode(i, sh.optTE[r])
		ws.dfs(sh, depth+1, c2)
		if ws.med < bnd {
			bnd = ws.med
		}
	}
	// Restore the fastest type so the invariant holds for the parent's
	// remaining siblings.
	e.t.UpdateNode(i, sh.optTE[lo])
}

// takeNode consumes one unit of the shared node-expansion budget, drawing
// quota in chunks to keep the shared counter off the per-node hot path.
//
// medcc:allocfree
func (ws *obWorker) takeNode(sh *bbShared) bool {
	if ws.quota > 0 {
		ws.quota--
		return true
	}
	if sh.stopped.Load() {
		return false
	}
	const chunk = 256
	if sh.expanded.Add(chunk) > sh.expLimit {
		sh.expanded.Add(-chunk)
		sh.stopped.Store(true)
		return false
	}
	ws.quota = chunk - 1
	return true
}

// publishBest lowers the shared incumbent-makespan bits to med when it
// improves; the value only ever decreases, so a lost CAS race just retries
// against a bound at least as strong.
//
// medcc:allocfree
func publishBest(bits *atomic.Uint64, med float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= med {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(med)) {
			return
		}
	}
}

func init() {
	Register("optimal", func() Scheduler { return &Optimal{} })
}
