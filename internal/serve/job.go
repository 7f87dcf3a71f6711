package serve

import (
	"errors"

	"medcc/internal/cloud"
	"medcc/internal/sched"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// ErrBusy is returned (and mapped to 429 over HTTP) when the admission
// queue is full: the server is saturated and the client should retry.
var ErrBusy = errors.New("serve: admission queue full")

// ErrClosed is returned once Close has begun; no further requests are
// admitted.
var ErrClosed = errors.New("serve: server closed")

// ErrWorkerPanic wraps a panic recovered while a worker served a job
// (mapped to 500 over HTTP). The worker drops its scratch and goes on.
var ErrWorkerPanic = errors.New("serve: worker panic")

// errNoBudget is the decode-side failure for requests that specify
// neither an absolute budget nor a fraction.
var errNoBudget = errors.New("serve: request needs budget or budget_fraction")

// job carries one admitted request from the HTTP (or in-process)
// frontend through the admission queue to a worker and back. Jobs are
// pooled: the decode targets (ownW/ownM/ownCat), the result schedule,
// and the trace keep their buffers across reuses, so a warm job serves
// a request without allocating. A job is owned by exactly one goroutine
// at a time — the frontend until the queue send, the worker until the
// done signal — so the handoff needs no locking beyond the channels.
type job struct {
	// Resolved request: w/m point either into the pinned snapshot
	// (named pair) or at the job-owned pooled instance below.
	snap *Snapshot
	// medcc:lint-ignore epochguard — resolved at admission and consumed within the same request; never held across a rebuild
	w *workflow.Workflow
	// medcc:lint-ignore epochguard — same single-request lifetime as w
	m        *workflow.Matrices
	alg      string
	budget   float64
	simulate bool
	boot     float64
	bw       float64
	delay    float64
	slots    int

	// Batch-grouping key parts: empty for inline instances.
	wfRef, catRef string

	// cacheable marks named snapshot pairs — the only requests the
	// staircase cache serves. trail is the installed staircase's trail
	// at or below the budget, which the worker resumes from. buildSlot/
	// buildCache are armed by dispatch when this request's miss won the
	// singleflight latch; the worker captures them (captureBuild) before
	// the done signal.
	cacheable  bool
	trail      *sched.Trail
	buildSlot  *cacheSlot
	buildCache *scheduleCache

	// Job-owned pooled instance storage for inline requests.
	// medcc:lint-ignore epochguard — owner: the job rebuilds ownW in place per request and rebinds ownM immediately after
	ownW *workflow.Workflow
	// medcc:lint-ignore epochguard — owner: rebuilt via BuildMatricesInto on every inline request
	ownM   *workflow.Matrices
	ownCat cloud.Catalog

	// Results, filled by the worker.
	sched     workflow.Schedule
	makespan  float64
	cost      float64
	truncated bool
	trace     sim.Result
	err       error

	// resp is the HTTP frontend's response body, pooled with the job.
	resp responseBuf

	done chan struct{} // 1-buffered completion signal
}

// newJob is the pool factory.
func newJob() *job {
	return &job{ownW: workflow.New(), done: make(chan struct{}, 1)}
}

// reset clears per-request state while keeping pooled buffers.
func (j *job) reset() {
	j.snap, j.w, j.m = nil, nil, nil
	j.alg, j.wfRef, j.catRef = "", "", ""
	j.budget, j.boot, j.bw, j.delay = 0, 0, 0, 0
	j.slots = 0
	j.simulate = false
	j.cacheable = false
	j.trail = nil
	j.buildSlot, j.buildCache = nil, nil
	j.makespan, j.cost = 0, 0
	j.truncated = false
	j.err = nil
}

// release drops the snapshot and instance pins before the job returns
// to the pool, so a pooled idle job never keeps a superseded snapshot
// (or a request-scoped instance) alive.
func (j *job) release() {
	j.snap, j.w, j.m = nil, nil, nil
	j.trail = nil
	j.buildSlot, j.buildCache = nil, nil
	j.err = nil
}

// Params is the in-process request form: the same inputs the HTTP
// frontend decodes out of a request body, for callers (benchmarks,
// embedded use, medcc-load's loopback tests) that already hold decoded
// instances. Either name a loaded pair (WorkflowRef/CatalogRef) or pass
// an inline Workflow and Catalog.
type Params struct {
	WorkflowRef string
	CatalogRef  string
	Workflow    *workflow.Workflow
	Catalog     cloud.Catalog

	// Budget is the absolute budget. When UseFraction is set, Budget is
	// ignored and the budget is Fraction of the way from the pair's
	// minimum to maximum feasible cost.
	Budget      float64
	UseFraction bool
	Fraction    float64

	// Algorithm is a sched registry name; empty means critical-greedy.
	Algorithm string

	// Simulate adds a simulated trace under the given replay settings.
	Simulate      bool
	BootTime      float64
	Bandwidth     float64
	Delay         float64
	TransferSlots int
}

// Result is the in-process response form. Its slices are pooled: a
// Result reused across Schedule calls reaches steady state without
// allocating.
type Result struct {
	Schedule        workflow.Schedule
	Makespan        float64
	Cost            float64
	Budget          float64
	Truncated       bool
	SnapshotVersion uint64
	// Trace is filled only for Simulate requests.
	Trace sim.Result
}

// Schedule resolves p against the current snapshot, runs it through the
// admission queue and worker pool exactly like an HTTP request, and
// fills res. It is the zero-marshaling serving entry point: with a
// warm Result and a named or caller-owned instance, a call performs no
// allocations.
//
// medcc:onesnapshot — the library snapshot is pinned once at admission
func (s *Server) Schedule(p Params, res *Result) error {
	j := s.jobs.Get().(*job)
	j.reset()
	err := s.prepare(j, p)
	if err == nil {
		err = s.schedule(j, res)
	}
	j.release()
	s.jobs.Put(j)
	return err
}

// prepare validates Params (validateSimParams) and resolves them into a
// ready-to-enqueue job.
func (s *Server) prepare(j *job, p Params) error {
	if err := validateSimParams(&p); err != nil {
		return err
	}
	snap := s.snap.Load()
	j.snap = snap
	j.alg = p.Algorithm
	if j.alg == "" {
		j.alg = defaultAlgorithm
	}
	if !s.algOK[j.alg] {
		return &RequestError{Op: "algorithm", Err: errUnknownAlgorithm, Detail: j.alg}
	}
	j.simulate = p.Simulate
	j.boot, j.bw, j.delay, j.slots = p.BootTime, p.Bandwidth, p.Delay, p.TransferSlots

	var cmin, cmax float64
	switch {
	case p.Workflow == nil && p.Catalog == nil && p.WorkflowRef != "" && p.CatalogRef != "":
		m, lo, hi, ok := snap.Pair(p.WorkflowRef, p.CatalogRef)
		if !ok {
			return &RequestError{Op: "pair", Err: errUnknownName, Detail: p.WorkflowRef + "/" + p.CatalogRef}
		}
		j.w, j.m = snap.Workflows[p.WorkflowRef], m
		j.wfRef, j.catRef = p.WorkflowRef, p.CatalogRef
		j.cacheable = true
		cmin, cmax = lo, hi
	default:
		w := p.Workflow
		if w == nil {
			if p.WorkflowRef == "" {
				return &RequestError{Op: "workflow", Err: errMissingInput}
			}
			var ok bool
			if w, ok = snap.Workflows[p.WorkflowRef]; !ok {
				return &RequestError{Op: "workflow", Err: errUnknownName, Detail: p.WorkflowRef}
			}
			j.wfRef = p.WorkflowRef
		}
		cat := p.Catalog
		if cat == nil {
			if p.CatalogRef == "" {
				return &RequestError{Op: "catalog", Err: errMissingInput}
			}
			var ok bool
			if cat, ok = snap.Catalogs[p.CatalogRef]; !ok {
				return &RequestError{Op: "catalog", Err: errUnknownName, Detail: p.CatalogRef}
			}
			j.catRef = p.CatalogRef
		}
		// BuildMatricesInto also rebuilds the dominance-pruned options.
		m, err := w.BuildMatricesInto(cat, cloud.HourlyRoundUp, j.ownM)
		if err != nil {
			return &RequestError{Op: "matrices", Err: err}
		}
		j.ownM = m
		j.w, j.m = w, m
		if p.UseFraction {
			cmin, cmax = m.BudgetRange(w)
		}
	}

	if p.UseFraction {
		if !(p.Fraction >= 0 && p.Fraction <= 1) { // NaN fails too
			return &RequestError{Op: "budget", Err: errBadFraction}
		}
		// sched.BudgetAt is the one budget-resolution expression shared
		// with the staircase builder: grid hits are bit-exact matches, so
		// both sides must round identically.
		j.budget = sched.BudgetAt(cmin, cmax, p.Fraction)
	} else {
		j.budget = p.Budget
	}
	return nil
}

// schedule is the request hot path: cache dispatch (a staircase hit
// returns here without touching a worker), admission, the cross-worker
// round trip, and the response struct fill. Everything from here to the
// worker's schedule computation is allocation-free; so is the HTTP
// frontend's response body, from its own root
// (responseBuf.appendScheduleResponse).
//
// medcc:allocfree
func (s *Server) schedule(j *job, res *Result) error {
	if err := s.dispatch(j); err != nil {
		return err
	}
	res.Schedule = append(res.Schedule[:0], j.sched...)
	res.Makespan, res.Cost, res.Budget = j.makespan, j.cost, j.budget
	res.Truncated = j.truncated
	res.SnapshotVersion = j.snap.Version
	if j.simulate {
		res.Trace.CopyFrom(&j.trace)
	}
	return nil
}

// submit enqueues an admitted job and blocks until a worker completes
// it. The send is non-blocking: a full queue is backpressure (ErrBusy →
// 429), not a wait. The read lock closes the race between admission and
// Close's channel close.
//
// medcc:allocfree
func (s *Server) submit(j *job) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	select {
	case s.queue <- j:
	default:
		s.mu.RUnlock()
		return ErrBusy
	}
	s.mu.RUnlock()
	<-j.done
	return j.err
}
