package sched

import (
	"math"

	"medcc/internal/dag"
	"medcc/internal/workflow"
)

// candMode selects the ranking a candidate table maintains. The first two
// mirror Criterion for the Greedy family (GAIN3 shares candMaxRatio — its
// selection rule is identical); candWRF and candLoss carry the weight
// orders of Gain3WRF and LOSS1.
type candMode int

const (
	candMaxTime candMode = iota
	candMaxRatio
	candWRF
	candLoss
)

// activeSet selects which modules are eligible candidates when the table
// is queried: everything, only modules on the current critical path, or
// only modules not yet reassigned (the once-per-task / once-per-round
// disciplines of GAIN3 and Gain3WRF).
type activeSet int

const (
	actAll activeSet = iota
	actCritical
	actUnmoved
)

// candEnt is one lazy-deletion heap entry: the module it stands for, the
// generation of the per-module cache it was pushed from, and a copy of the
// ranking key at push time. Keys are embedded — never read back from the
// cache — so re-evaluating a module can never corrupt the ordering of
// entries already in the heap; the stale entry is simply dropped when its
// generation no longer matches.
type candEnt struct {
	key1, key2 float64
	mod        int32
	gen        uint32
}

// candTab maintains, per schedulable module, the best (type, gain) upgrade
// under the current schedule and leftover budget, plus a lazy-deletion
// max-heap over those winners. The invariants:
//
//   - gen[i] counts evaluations of module i; a heap entry is valid iff its
//     gen matches. Every evaluation bumps gen, so stale entries die on pop.
//   - eval[i] is the leftover budget the cached winner was computed under.
//     If the current leftover budget exceeds it, options skipped as
//     unaffordable may have become viable and the cache must be recomputed
//     (popBest does this for the top; refreshGrown for the whole pool).
//     If the budget shrank, the cached winner is still the best whenever it
//     remains affordable — the feasible set only lost members, all of which
//     already lost to the winner — and is recomputed on pop otherwise.
//   - candLoss weights are budget-independent, so both checks are skipped.
//
// Ties between equally-ranked modules break toward the smaller position in
// the engine's module order (mpos), reproducing the first-wins incumbent
// rule of the flat scans this replaces.
//
// medcc:scratch
type candTab struct {
	mode candMode
	e    *engine

	mpos []int32 // module id -> position in e.mods; -1 = not schedulable

	bj   []int32   // best type per module; -1 = no candidate
	bdt  []float64 // dt (candMaxTime/candMaxRatio), wt (candWRF), wgt (candLoss)
	bdc  []float64 // cost increase; cost saved for candLoss
	eval []float64 // leftover budget at evaluation time
	gen  []uint32
	// minx is the cheapest cost increase among the module's improving
	// rows that failed the affordability test at evaluation time (+Inf
	// if none; candMaxTime/candMaxRatio only). rebuild and scanCritical
	// fold it into the certificate Greedy.SweepInto replays against.
	minx []float64

	heap []candEnt
}

// start binds the table to an engine for one scheduling run, resetting all
// caches to unevaluated.
//
// medcc:allocfree — grow is the cold capacity path; steady-state calls
// only clear and refill existing slices.
func (c *candTab) start(e *engine, mode candMode) {
	c.e, c.mode = e, mode
	nm := e.w.NumModules()
	if cap(c.bj) < nm {
		c.grow(nm)
	}
	c.bj = c.bj[:nm]
	c.bdt = c.bdt[:nm]
	c.bdc = c.bdc[:nm]
	c.eval = c.eval[:nm]
	c.gen = c.gen[:nm]
	c.minx = c.minx[:nm]
	c.mpos = c.mpos[:nm]
	for i := range c.gen {
		c.gen[i] = 0
		c.mpos[i] = -1
	}
	for p, i := range e.mods {
		c.mpos[i] = int32(p)
	}
	c.heap = c.heap[:0]
}

// grow allocates the per-module arrays for a new high-water module count.
//
// medcc:coldpath
func (c *candTab) grow(nm int) {
	c.bj = make([]int32, nm)
	c.bdt = make([]float64, nm)
	c.bdc = make([]float64, nm)
	c.eval = make([]float64, nm)
	c.gen = make([]uint32, nm)
	c.minx = make([]float64, nm)
	c.mpos = make([]int32, nm)
}

// active reports whether module i is currently an eligible candidate.
func (c *candTab) active(i int, act activeSet) bool {
	switch act {
	case actCritical:
		return c.e.t.IsCritical(i)
	case actUnmoved:
		return !c.e.moved[i]
	default:
		return true
	}
}

// evalModule recomputes module i's best upgrade (or downgrade, for
// candLoss) under schedule s and leftover budget cextra, invalidating any
// heap entries pushed from the previous evaluation.
//
// candMaxTime/candMaxRatio walk the structure-of-arrays option table in
// ascending execution-time order and stop at the first row that is no
// longer an improvement — every later row is slower still. candWRF and
// candLoss keep the type-index scan order of the flat loops they replace,
// because their epsilon tie-breaks are pinned to it (Table VII replays the
// paper's published outputs column for column).
//
// medcc:allocfree
func (c *candTab) evalModule(i int, s workflow.Schedule, cextra float64) {
	c.gen[i]++
	c.bj[i] = -1
	c.eval[i] = cextra
	e := c.e
	m := e.m
	si := s[i]
	switch c.mode {
	case candWRF:
		tei, cei := m.TE[i], m.CE[i]
		told, cold := tei[si], cei[si]
		bj := -1
		var bw, bdc float64
		for _, j := range e.m.Options(i) {
			if j == si {
				continue
			}
			tnew := tei[j]
			dc := cei[j] - cold
			if told-tnew <= dag.Eps || dc > cextra+costEps {
				continue
			}
			wt := math.Inf(1)
			if dc > costEps {
				wt = (told / tnew) / dc
			}
			if bj == -1 || wt > bw {
				bj, bw, bdc = j, wt, dc
			}
		}
		if bj >= 0 {
			c.bj[i], c.bdt[i], c.bdc[i] = int32(bj), bw, bdc
		}
	case candLoss:
		tei, cei := m.TE[i], m.CE[i]
		bj := -1
		var bw, bsave float64
		for _, j := range e.m.Options(i) {
			if j == si {
				continue
			}
			save := cei[si] - cei[j]
			if save <= costEps {
				continue
			}
			dt := tei[j] - tei[si]
			if dt < 0 {
				dt = 0 // cheaper and no slower: ideal downgrade
			}
			wgt := dt / save
			if bj == -1 || wgt < bw-dag.Eps ||
				(wgt <= bw+dag.Eps && save > bsave+costEps) {
				bj, bw, bsave = j, wgt, save
			}
		}
		if bj >= 0 {
			c.bj[i], c.bdt[i], c.bdc[i] = int32(bj), bw, bsave
		}
	default: // candMaxTime, candMaxRatio
		typ, te, ce := e.m.OptionTable(i)
		told, cold := m.TE[i][si], m.CE[i][si]
		bj := -1
		var bdt, bdc float64
		minx := math.Inf(1)
		for k := 0; k < len(te); k++ {
			dt := told - te[k]
			if dt <= dag.Eps {
				break // te is ascending: nothing further improves
			}
			dc := ce[k] - cold
			if dc > cextra+costEps {
				if dc < minx {
					minx = dc
				}
				continue // unaffordable
			}
			if bj == -1 || upgradeBetter(c.mode == candMaxRatio, dt, dc, bdt, bdc) {
				bj, bdt, bdc = int(typ[k]), dt, dc
			}
		}
		c.minx[i] = minx
		if bj >= 0 {
			c.bj[i], c.bdt[i], c.bdc[i] = int32(bj), bdt, bdc
		}
	}
}

// ensure refreshes module i's cache when it is unevaluated or stale for
// the current leftover budget (grown past the evaluation stamp, or cached
// winner no longer affordable).
//
// medcc:allocfree
func (c *candTab) ensure(i int, s workflow.Schedule, cextra float64) {
	if c.gen[i] == 0 ||
		(c.mode != candLoss &&
			(cextra > c.eval[i] || (c.bj[i] >= 0 && c.bdc[i] > cextra+costEps))) {
		c.evalModule(i, s, cextra)
	}
}

// push adds a heap entry for module i's current cached winner. Callers
// must have checked bj[i] >= 0. Duplicate live entries for the same module
// are harmless: accepting one bumps the generation and orphans the rest.
//
// medcc:allocfree — the append stays within capacity once the heap has
// grown to its high-water mark.
func (c *candTab) push(i int) {
	c.heap = append(c.heap, c.entry(i))
	c.siftUp(len(c.heap) - 1)
}

// rebuild discards the heap and refills it from every active module,
// reusing caches that are still valid for the current leftover budget.
// This is the full-reset path: the initial build and the critical-set
// reset after a makespan change both land here.
//
// Afterwards every active cache is valid for cextra, so the returned
// minimum of their minx is the state's certificate: the next pop makes
// the same choice at any leftover budget x with cert > x+costEps, since
// no improving row that failed the test passes it there.
//
// medcc:allocfree
func (c *candTab) rebuild(s workflow.Schedule, cextra float64, act activeSet) (cert float64) {
	c.heap = c.heap[:0]
	cert = math.Inf(1)
	for _, i := range c.e.mods {
		if !c.active(i, act) {
			continue
		}
		c.ensure(i, s, cextra)
		if c.minx[i] < cert {
			cert = c.minx[i]
		}
		if c.bj[i] >= 0 {
			c.heap = append(c.heap, c.entry(i))
		}
	}
	for k := len(c.heap)/2 - 1; k >= 0; k-- {
		c.siftDown(k)
	}
	return cert
}

// refreshGrown re-evaluates every active module whose cache was computed
// under a smaller leftover budget than cextra. Lazy validation on pop is
// not enough after the budget grows: a buried entry's true rank may have
// strengthened past the top's, so each stale cache gets a fresh entry (the
// old one dies by generation).
//
// medcc:allocfree
func (c *candTab) refreshGrown(s workflow.Schedule, cextra float64, act activeSet) {
	if c.mode == candLoss {
		return
	}
	for _, i := range c.e.mods {
		if !c.active(i, act) || cextra <= c.eval[i] {
			continue
		}
		c.evalModule(i, s, cextra)
		if c.bj[i] >= 0 {
			c.push(i)
		}
	}
}

// scanCritical is rebuild(actCritical) followed by popBest without the
// heap: one pass over the critical modules in the engine's module order
// that ensures each one's cache for cextra, folds its minx into the
// returned certificate and keeps the before-best winner. A later module
// wins only with a strictly preferred key, the first-wins incumbent rule
// the heap reproduces through mpos.
//
// medcc:allocfree
func (c *candTab) scanCritical(s workflow.Schedule, cextra float64) (mod, typ int, dc, cert float64, ok bool) {
	cert = math.Inf(1)
	best := -1
	for _, i := range c.e.mods {
		if !c.e.t.IsCritical(i) {
			continue
		}
		c.ensure(i, s, cextra)
		if c.minx[i] < cert {
			cert = c.minx[i]
		}
		if c.bj[i] >= 0 && (best < 0 || c.prefer(c.entry(i), c.entry(best))) {
			best = i
		}
	}
	if best < 0 {
		return -1, -1, 0, cert, false
	}
	return best, int(c.bj[best]), c.bdc[best], cert, true
}

// entry is the heap entry of module i's current cached winner.
func (c *candTab) entry(i int) candEnt {
	return candEnt{key1: c.bdt[i], key2: c.bdc[i], mod: int32(i), gen: c.gen[i]}
}

// popBest pops entries until one survives validation and returns its
// module, type, and cost delta. Entries are dropped when their generation
// is stale, their module is no longer active, or the module has no
// candidate; an entry whose cache is stale for the current budget is
// re-evaluated and re-pushed before the next pop.
//
// medcc:allocfree
func (c *candTab) popBest(s workflow.Schedule, cextra float64, act activeSet) (mod, typ int, dc float64, ok bool) {
	for len(c.heap) > 0 {
		top := c.heap[0]
		i := int(top.mod)
		if top.gen != c.gen[i] || !c.active(i, act) || c.bj[i] < 0 {
			c.pop()
			continue
		}
		if c.mode != candLoss &&
			(cextra > c.eval[i] || c.bdc[i] > cextra+costEps) {
			c.pop()
			c.evalModule(i, s, cextra)
			if c.bj[i] >= 0 {
				c.push(i)
			}
			continue
		}
		c.pop()
		return i, int(c.bj[i]), c.bdc[i], true
	}
	return -1, -1, 0, false
}

// before reports whether entry a should pop ahead of entry b: a strictly
// preferred key first, then the earlier module in the engine's module
// order, replicating the incumbent rule of a flat first-wins scan (prefer
// is asymmetric in every mode, so exactly one branch decides).
func (c *candTab) before(a, b candEnt) bool {
	if c.prefer(a, b) {
		return true
	}
	if c.prefer(b, a) {
		return false
	}
	return c.mpos[a.mod] < c.mpos[b.mod]
}

// prefer reports whether entry a's key strictly beats entry b's under the
// table's mode, mirroring the selection rules of the flat scans:
// upgradeBetter for Greedy's two Criterion modes, Gain3WRF's strict weight
// compare, and LOSS's min-weight / max-saving bands.
func (c *candTab) prefer(a, b candEnt) bool {
	switch c.mode {
	case candWRF:
		return a.key1 > b.key1
	case candLoss:
		return a.key1 < b.key1-dag.Eps ||
			(a.key1 <= b.key1+dag.Eps && a.key2 > b.key2+costEps)
	default:
		return upgradeBetter(c.mode == candMaxRatio, a.key1, a.key2, b.key1, b.key2)
	}
}

// upgradeBetter reports whether the candidate (dt, dc) beats the incumbent
// (bestDT, bestDC): the GainWeight ratio order when maxRatio is set, the
// paper's max-time-decrease / min-cost-increase order otherwise. Greedy
// uses it both to pick each module's best affordable row and to order its
// candidate heap.
//
// medcc:floateq-exact — ratios may be +Inf (free upgrades); exact
// inequality merely detects distinct ranks before the epsilon tie-breaks.
func upgradeBetter(maxRatio bool, dt, dc, bestDT, bestDC float64) bool {
	if maxRatio {
		r, br := ratio(dt, dc), ratio(bestDT, bestDC)
		if r != br {
			return r > br
		}
		return dt > bestDT+dag.Eps
	}
	if dt > bestDT+dag.Eps {
		return true
	}
	if dt < bestDT-dag.Eps {
		return false
	}
	return dc < bestDC-costEps
}

func (c *candTab) siftUp(k int) {
	h := c.heap
	for k > 0 {
		p := (k - 1) / 2
		if !c.before(h[k], h[p]) {
			return
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
}

func (c *candTab) siftDown(k int) {
	h := c.heap
	n := len(h)
	for {
		l := 2*k + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && c.before(h[r], h[l]) {
			best = r
		}
		if !c.before(h[best], h[k]) {
			return
		}
		h[k], h[best] = h[best], h[k]
		k = best
	}
}

func (c *candTab) pop() {
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	if n > 0 {
		c.siftDown(0)
	}
}
