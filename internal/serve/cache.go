package serve

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// The staircase cache exploits MED-CC's central structure: for a fixed
// (workflow, catalog, algorithm) triple the scheduler's answer is a
// pure step function of the budget, so one grid sweep (sched.SweepGrid)
// materializes every answer the triple will ever give at grid budgets.
// The cache is snapshot-scoped and immutable by construction: every
// slot a snapshot can ever serve is preallocated at snapshot build
// (workflows × catalogs × servable algorithms), the slot map is never
// written after publication, and the only mutable state is per-slot
// atomics. A reload builds a fresh empty cache with the fresh snapshot,
// so there is no invalidation protocol — in-flight requests keep the
// cache of the snapshot they pinned at admission, exactly like the
// snapshot itself.
//
// Hit path: one map read, one atomic.Pointer Load, one exact-match
// binary search, one schedule copy — no locks, no engine, 0 allocs/op.
// Only bit-exact budget matches hit (every grid level equals a direct
// ScheduleInto at its budget), so cached responses are bit-identical to
// direct sched.Run.
//
// Resume path: a request between grid levels, or one asking for a
// simulated trace (which the cache does not store), still goes to a
// worker, but it carries the trail of the grid level at or below its
// budget (sched.Trail, kept per level by the Greedy family, GAIN1 and
// GAIN3). The worker resumes the solve from that trail with a one-level
// sweep (sched.Runner.Solve, sched.Sweeper.SweepInto): it replays the
// steps that still hold at the request's budget and runs the rest, and
// the answer is exactly ScheduleInto's. Trails are immutable and shared
// by all workers.
//
// Miss path: the first miss on a slot without a staircase wins a CAS
// latch (singleflight) and rides its own request to a worker, which
// answers the request first (cold solve, nothing waits on the sweep)
// and then builds and installs the staircase. Concurrent misses lose
// the CAS and just take the cold path; they never block on the build.

// CacheConfig sizes the snapshot-scoped staircase cache.
type CacheConfig struct {
	// Disable turns the cache off: snapshots carry no cache and every
	// request takes the direct scheduling path.
	Disable bool
	// MaxLevels caps a staircase's grid after adaptive refinement, as
	// sched.GridOptions.MaxLevels: 0 means 33, and a cap below the
	// 9-level starting grid is raised to 9.
	MaxLevels int
	// MaxBytes caps resident staircase bytes per snapshot; 0 means
	// unlimited. Over the cap, least-recently-used staircases are
	// evicted on the install path.
	MaxBytes int64
}

// cacheKey identifies one staircase within a snapshot. The snapshot
// version is deliberately absent: the cache lives inside its snapshot.
type cacheKey struct{ alg, wf, cat string }

// cacheSlot is the per-key state. stair flips nil → installed staircase
// exactly once per build; building is the singleflight latch; lastUse
// is a logical-clock stamp for LRU eviction.
type cacheSlot struct {
	stair    atomic.Pointer[staircase]
	building atomic.Bool
	lastUse  atomic.Int64
}

// staircase is one installed grid sweep: the sched.Staircase that
// SweepGrid returned, plus the MED and cost of each of its distinct
// schedules. Readers share it freely; nothing is written after install.
type staircase struct {
	st          *sched.Staircase
	meds, costs []float64 // per distinct schedule
	bytes       int64
}

// lookup binary-searches for a bit-exact budget match. On a miss it
// returns the index of the first level above budget, so the level at or
// below budget is one less. Grid membership is bit-exact by
// construction: request budgets and grid budgets both come from
// sched.BudgetAt over identical (cmin, cmax, fraction) inputs.
//
// medcc:allocfree
func (sc *staircase) lookup(budget float64) (int, bool) {
	return slices.BinarySearch(sc.st.Budgets, budget)
}

// trailBelow returns the trail of the level at or below the budget
// lookup placed at (k, hit), or nil when there is none.
//
// medcc:allocfree
func (sc *staircase) trailBelow(k int, hit bool) *sched.Trail {
	if !hit {
		k--
	}
	if k < 0 || sc.st.Trails == nil {
		return nil
	}
	return sc.st.Trails[k]
}

// fill copies level k into the job's pooled result fields — the entire
// work of a cache hit.
//
// medcc:allocfree
func (sc *staircase) fill(j *job, k int) {
	d := sc.st.Level[k]
	j.sched = append(j.sched[:0], sc.st.Scheds[d]...)
	j.makespan, j.cost = sc.meds[d], sc.costs[d]
	j.truncated = sc.st.Trunc != nil && sc.st.Trunc[k]
}

// scheduleCache is one snapshot's cache. slots is immutable after
// newScheduleCache returns; keys is the sorted iteration order (the
// collect-then-sort idiom, so eviction and stats are deterministic).
type scheduleCache struct {
	slots map[cacheKey]*cacheSlot
	keys  []cacheKey

	maxLevels int
	maxBytes  int64

	clock atomic.Int64 // logical time for LRU stamps
	bytes atomic.Int64 // resident staircase bytes

	hits      atomic.Int64
	misses    atomic.Int64
	resumes   atomic.Int64
	evictions atomic.Int64
	builds    atomic.Int64

	// evictMu serializes install-path eviction scans. Never taken on
	// the hit path.
	evictMu sync.Mutex
}

// newScheduleCache preallocates a slot for every triple the snapshot
// can serve. Slots are tiny (three words of atomics); even a large
// library × the full algorithm registry stays in the kilobytes.
func newScheduleCache(snap *Snapshot, algs map[string]bool, cc CacheConfig) *scheduleCache {
	c := &scheduleCache{
		maxLevels: cc.MaxLevels,
		maxBytes:  cc.MaxBytes,
	}
	algNames := sortedKeys(algs)
	n := len(algNames) * len(snap.wfNames) * len(snap.catNames)
	c.slots = make(map[cacheKey]*cacheSlot, n)
	c.keys = make([]cacheKey, 0, n)
	for _, alg := range algNames {
		for _, wf := range snap.wfNames {
			for _, cat := range snap.catNames {
				k := cacheKey{alg: alg, wf: wf, cat: cat}
				c.slots[k] = &cacheSlot{}
				c.keys = append(c.keys, k)
			}
		}
	}
	sort.Slice(c.keys, func(i, j int) bool {
		a, b := c.keys[i], c.keys[j]
		if a.alg != b.alg {
			return a.alg < b.alg
		}
		if a.wf != b.wf {
			return a.wf < b.wf
		}
		return a.cat < b.cat
	})
	return c
}

// slot returns the key's slot, or nil for triples outside the snapshot.
//
// medcc:allocfree
func (c *scheduleCache) slot(alg, wf, cat string) *cacheSlot {
	return c.slots[cacheKey{alg: alg, wf: wf, cat: cat}]
}

// dispatch is the cache front end, between prepare and the admission
// queue. A bit-exact grid hit is served from the pinned snapshot's
// staircase without touching a worker. Any other request on a slot with
// an installed staircase, a budget between grid levels or a simulated
// trace, carries the trail of the level at or below its budget to the
// worker, which resumes the solve from it (cache_resumes). The first
// miss on a slot without a staircase arms the singleflight build latch.
// Simulated-trace requests count as neither hits nor misses and never
// arm a build; inline instances bypass the cache (j.cacheable is set
// only for named snapshot pairs).
//
// medcc:allocfree
func (s *Server) dispatch(j *job) error {
	c := j.snap.cache
	if c == nil || !j.cacheable {
		return s.submit(j)
	}
	slot := c.slot(j.alg, j.wfRef, j.catRef)
	if slot == nil {
		return s.submit(j)
	}
	if st := slot.stair.Load(); st != nil {
		k, hit := st.lookup(j.budget)
		if hit && !j.simulate {
			slot.lastUse.Store(c.clock.Add(1))
			c.hits.Add(1)
			st.fill(j, k)
			return nil
		}
		if j.trail = st.trailBelow(k, hit); j.trail != nil {
			slot.lastUse.Store(c.clock.Add(1))
			c.resumes.Add(1)
		}
	} else if !j.simulate && slot.building.CompareAndSwap(false, true) {
		j.buildSlot = slot
		j.buildCache = c
	}
	if !j.simulate {
		c.misses.Add(1)
	}
	err := s.submit(j)
	if err != nil {
		// The job never reached a worker (full queue, closing server). A
		// job a worker did serve always has buildSlot cleared
		// (captureBuild) before the done signal, whatever its j.err.
		j.releaseBuild()
	}
	return err
}

// releaseBuild drops the build the job's miss armed and releases its
// latch, so a later miss can claim the build.
func (j *job) releaseBuild() {
	if j.buildSlot != nil {
		j.buildSlot.building.Store(false)
		j.buildSlot, j.buildCache = nil, nil
	}
}

// install publishes a staircase and applies the memory cap.
// Runs on a worker after the triggering request was answered — the cold
// path by construction.
//
// medcc:coldpath
func (c *scheduleCache) install(slot *cacheSlot, sc *staircase) {
	defer slot.building.Store(false)
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	slot.stair.Store(sc)
	slot.lastUse.Store(c.clock.Add(1))
	c.bytes.Add(sc.bytes)
	c.builds.Add(1)
	if c.maxBytes > 0 {
		c.evictLocked(slot)
	}
}

// evictLocked drops least-recently-used staircases (never the one just
// installed) until resident bytes fit the cap. Ties break on sorted key
// order, so eviction is deterministic. Evicted staircases stay valid
// for readers that already Loaded them — they are immutable; only the
// slot forgets them.
func (c *scheduleCache) evictLocked(keep *cacheSlot) {
	for c.bytes.Load() > c.maxBytes {
		var victim *cacheSlot
		var oldest int64
		for _, k := range c.keys {
			slot := c.slots[k]
			if slot == keep || slot.stair.Load() == nil {
				continue
			}
			if use := slot.lastUse.Load(); victim == nil || use < oldest {
				victim, oldest = slot, use
			}
		}
		if victim == nil {
			return
		}
		if sc := victim.stair.Swap(nil); sc != nil {
			c.bytes.Add(-sc.bytes)
			c.evictions.Add(1)
		}
	}
}

// staircases counts installed staircases (stats path).
func (c *scheduleCache) staircases() int {
	n := 0
	for _, k := range c.keys {
		if c.slots[k].stair.Load() != nil {
			n++
		}
	}
	return n
}

// buildReq carries everything a worker needs to build a staircase after
// it has acked the triggering job: the job returns to the frontend pool
// on the done signal, so its fields must be copied out first. All
// referenced state is owned by the pinned (immutable) snapshot, so the
// copies stay valid for the duration of the build.
//
// buildReq deliberately has no methods: it is a single-build value on
// the worker stack, dead before the snapshot it references can change.
type buildReq struct {
	slot          *cacheSlot
	cache         *scheduleCache
	snap          *Snapshot
	w             *workflow.Workflow
	alg           string
	wfRef, catRef string
}

// captureBuild lifts a pending build off a served job, before the done
// signal releases the job back to the frontend.
//
// medcc:allocfree
func captureBuild(j *job) buildReq {
	if j.buildSlot == nil {
		return buildReq{}
	}
	br := buildReq{
		slot:   j.buildSlot,
		cache:  j.buildCache,
		snap:   j.snap,
		w:      j.w,
		alg:    j.alg,
		wfRef:  j.wfRef,
		catRef: j.catRef,
	}
	j.buildSlot, j.buildCache = nil, nil
	return br
}

// buildStaircase runs the grid sweep for one slot with the worker's
// runner and installs the result. Any failure just releases the
// singleflight latch — a later miss retries; requests were never
// waiting on this.
//
// medcc:coldpath — once per (snapshot, workflow, catalog, algorithm).
func (w *worker) buildStaircase(br buildReq) {
	alg, err := w.run.Scheduler(br.alg)
	m, cmin, cmax, ok := br.snap.Pair(br.wfRef, br.catRef)
	if err != nil || !ok {
		br.slot.building.Store(false)
		return
	}
	st, err := sched.SweepGrid(alg, br.w, m, cmin, cmax, sched.GridOptions{MaxLevels: br.cache.maxLevels})
	if err != nil {
		br.slot.building.Store(false)
		return
	}
	sc, err := newStaircase(&w.run, st, br.w, m)
	if err != nil {
		br.slot.building.Store(false)
		return
	}
	br.cache.install(br.slot, sc)
}

// newStaircase evaluates each distinct schedule of a sweep once, with
// the runner's MED — the path the direct response takes — so a hit
// reproduces the direct response bit for bit.
//
// medcc:coldpath
func newStaircase(r *sched.Runner, st *sched.Staircase, wf *workflow.Workflow, m *workflow.Matrices) (*staircase, error) {
	sc := &staircase{st: st, meds: make([]float64, st.Steps()), costs: make([]float64, st.Steps())}
	for d, s := range st.Scheds {
		med, err := r.MED(wf, m, s)
		if err != nil {
			return nil, err
		}
		sc.meds[d], sc.costs[d] = med, m.Cost(s)
	}
	sc.bytes = staircaseBytes(st)
	return sc, nil
}

// staircaseBytes is the resident-size model used for the memory cap:
// the sweep's per-level budgets, levels, flags and trail pointers, each
// distinct schedule with its MED and cost, the trails (each recorded
// step and sorted list counted once, sched.Staircase.TrailBytes), plus
// the headers.
func staircaseBytes(st *sched.Staircase) int64 {
	b := int64(st.Levels())*(8+4) + int64(len(st.Trunc)) + int64(len(st.Trails))*8
	for _, s := range st.Scheds {
		b += 24 + 16 + int64(len(s))*8 // slice header, MED and cost, types
	}
	return b + st.TrailBytes() + 128
}
