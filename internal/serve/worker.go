package serve

import (
	"fmt"

	"medcc/internal/sched"
	"medcc/internal/sim"
)

// worker is the per-goroutine serving scratch: the pooled solver that
// schedules, resumes, evaluates MED and builds staircases, a Replayer
// for simulated traces, and the batch buffer. Each worker goroutine owns
// exactly one worker by index into the server's pool — workers never
// cross goroutines, so every piece of scratch is reused from request to
// request without synchronization.
//
// medcc:scratch
type worker struct {
	run   sched.Runner
	batch []*job
	rep   sim.Replayer
}

// runWorker is one pool goroutine: take a job (blocking), opportunistically
// drain more into a batch, sort the batch so same-instance requests are
// adjacent, and serve them in order. Sorting is what amortizes the
// catalog bind: scheduler engines early-return their bind when the
// (workflow, matrices, versions) tuple is unchanged, so a batch of
// same-pair requests binds once and schedules many times.
// A job that won its cache slot's singleflight latch additionally
// triggers a staircase build — AFTER its done signal, so the requester
// never waits on the sweep, and only from fields captured beforehand,
// because the ack releases the job back to the frontend pool.
// A panic in a job or a build is recovered (see recovered); the worker
// goes on with the next job.
func (s *Server) runWorker(k int) {
	defer s.wg.Done()
	w := &s.workers[k]
	for j := range s.queue {
		s.busy.Add(1)
		w.batch = append(w.batch[:0], j)
		w.gather(s.queue, s.maxBatch)
		w.sortBatch()
		for _, j := range w.batch {
			s.serveJob(w, j)
			br := captureBuild(j)
			j.done <- struct{}{}
			if br.slot != nil {
				s.buildJob(w, br)
			}
		}
		s.busy.Add(-1)
	}
}

// serveJob serves one job into j.err; a panic inside it becomes the
// job's error, which answers 500.
//
// medcc:allocfree
func (s *Server) serveJob(w *worker, j *job) {
	defer s.recoverJob(w, j)
	j.err = w.serve(j)
}

// recoverJob is serveJob's deferred recovery (recover only stops a panic
// when the deferred function calls it itself). A job that panicked
// builds no staircase: the instance it would sweep just broke a solve.
func (s *Server) recoverJob(w *worker, j *job) {
	if r := recover(); r != nil {
		j.err = s.recovered(w, r)
		j.releaseBuild()
	}
}

// buildJob builds a staircase; a panic inside the build releases the
// slot's latch, so a later miss can claim the build again.
//
// medcc:coldpath — once per (snapshot, workflow, catalog, algorithm).
func (s *Server) buildJob(w *worker, br buildReq) {
	defer s.recoverBuild(w, br.slot)
	w.buildStaircase(br)
}

// recoverBuild is buildJob's deferred recovery.
func (s *Server) recoverBuild(w *worker, slot *cacheSlot) {
	if r := recover(); r != nil {
		_ = s.recovered(w, r)
		slot.building.Store(false)
	}
}

// recovered handles a panic recovered on a worker: it counts it
// (worker_panics in /stats), drops the worker's runner and replayer,
// whose state is whatever the panic left, so the next job starts clean,
// and returns the error the job answers with.
//
// medcc:coldpath — a panic is a bug, not a steady state.
func (s *Server) recovered(w *worker, r any) error {
	s.panics.Add(1)
	w.run = sched.Runner{}
	w.rep = sim.Replayer{}
	return fmt.Errorf("%w: %v", ErrWorkerPanic, r)
}

// gather drains up to max-1 additional queued jobs without blocking.
//
// medcc:allocfree
func (w *worker) gather(queue <-chan *job, max int) {
	for len(w.batch) < max {
		select {
		case j, ok := <-queue:
			if !ok {
				return
			}
			w.batch = append(w.batch, j)
		default:
			return
		}
	}
}

// sortBatch groups the batch by (algorithm, workflow, catalog, snapshot
// version) with an in-place insertion sort — batches are small and
// mostly presorted under homogeneous load. The sort is stable, so
// same-key requests keep their admission order and responses stay
// deterministic.
//
// medcc:allocfree
func (w *worker) sortBatch() {
	b := w.batch
	for i := 1; i < len(b); i++ {
		j := b[i]
		k := i - 1
		for k >= 0 && batchLess(j, b[k]) {
			b[k+1] = b[k]
			k--
		}
		b[k+1] = j
	}
}

// batchLess orders jobs for batching. Inline instances have empty refs
// and sort together; their engines rebind per job regardless.
//
// medcc:allocfree
func batchLess(a, b *job) bool {
	if a.alg != b.alg {
		return a.alg < b.alg
	}
	if a.wfRef != b.wfRef {
		return a.wfRef < b.wfRef
	}
	if a.catRef != b.catRef {
		return a.catRef < b.catRef
	}
	return a.snap.Version < b.snap.Version
}

// serve runs one admitted job: schedule within budget (resuming from the
// job's staircase trail when dispatch attached one), price and time the
// result, optionally replay it for a trace. Everything here runs in
// worker-owned scratch.
//
// medcc:allocfree
// medcc:deterministic — served schedules are differential-tested
// bit-identical to direct sched.Run
func (w *worker) serve(j *job) error {
	sc, truncated, err := w.run.Solve(j.alg, j.sched, j.w, j.m, j.budget, j.trail)
	if err != nil {
		return err
	}
	j.sched, j.truncated, j.cost = sc, truncated, j.m.Cost(sc)
	if j.makespan, err = w.run.MED(j.w, j.m, sc); err != nil {
		return err
	}
	if !j.simulate {
		return nil
	}
	return w.rep.RunInto(sim.Config{
		Workflow: j.w, Matrices: j.m, Schedule: j.sched,
		BootTime: j.boot, Bandwidth: j.bw, Delay: j.delay,
		TransferSlots: j.slots,
	}, &j.trace)
}
