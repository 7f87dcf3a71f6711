package main

import (
	"bytes"
	"fmt"
	"os"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/encoding"
	"medcc/internal/sched"
	"medcc/internal/serve"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

// stageScratch is the replay's reusable state, the counterpart of a
// server worker's: a decoder, a decoded workflow with its matrices, and
// one scheduler engine per algorithm. iw and icat hold the separately
// decoded instance handed to Server.Schedule, so that call, like the
// HTTP path, meets a freshly decoded workflow.
type stageScratch struct {
	cr    encoding.CorpusReader
	dec   encoding.Decoder
	w, iw *workflow.Workflow
	m     *workflow.Matrices
	cat   cloud.Catalog
	icat  cloud.Catalog
	times []float64
	algs  map[string]sched.IntoScheduler
	dst   map[string]workflow.Schedule
	rep   sim.Replayer
	trace sim.Result
	res   serve.Result
}

// engine returns the pooled scheduler for an algorithm from algs,
// creating it on first use.
func engine(algs map[string]sched.IntoScheduler, name string) (sched.IntoScheduler, error) {
	if alg, ok := algs[name]; ok {
		return alg, nil
	}
	s, err := sched.Get(name)
	if err != nil {
		return nil, err
	}
	alg, ok := s.(sched.IntoScheduler)
	if !ok {
		return nil, fmt.Errorf("%s: %w", name, errNotPooled)
	}
	algs[name] = alg
	return alg, nil
}

// replayStages runs after the load, on one goroutine, over an evenly
// spaced sample of the ring. For each request it times, under a
// "replay" root, the public calls the server path takes for that
// request — decode and bind for an inline body, then solve, MED and the
// simulated replay unless a staircase answers it — and, as a sibling,
// Server.Schedule with the same parameters. The two run in alternating
// order, so neither always finds the caches warm. Both answers go
// through the oracle; it returns how many it checked and how many
// failed. Then it times one sched.SweepGrid per library pair and
// staircase algorithm.
func replayStages(d *driver, orc *oracle) (attempted, failed int64, err error) {
	sc := &stageScratch{
		w:    workflow.New(),
		iw:   workflow.New(),
		algs: map[string]sched.IntoScheduler{},
		dst:  map[string]workflow.Schedule{},
	}
	n := min(d.cfg.replaySamples, ringLen)
	stride := max(ringLen/n, 1) // ringLen is prime, so any stride visits n distinct specs
	var first error
	for j := 0; j < n; j++ {
		ri := (j * stride) % ringLen
		spec := &d.in.ring[ri]
		e, err := orc.expect(spec)
		if err != nil {
			return attempted, failed, err
		}
		var stageErr, inprocErr error
		if j%2 == 0 {
			stageErr = stages(sc, d, spec, int64(ri), e)
			inprocErr = inproc(sc, d, spec, int64(ri), e)
		} else {
			inprocErr = inproc(sc, d, spec, int64(ri), e)
			stageErr = stages(sc, d, spec, int64(ri), e)
		}
		for _, err := range []error{stageErr, inprocErr} {
			attempted++
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
	}
	if first != nil {
		fmt.Fprintf(os.Stderr, "bench: %d replayed answers failed; first: %v\n", failed, first)
	}
	return attempted, failed, sweeps(sc, d)
}

// stages times the server path of one request step by step.
func stages(sc *stageScratch, d *driver, spec *reqSpec, req int64, e *expected) error {
	rec := d.rec
	root := rec.add(span{Name: "replay", Start: rec.now(), Parent: -1, Req: req})
	defer rec.end(root)

	var w *workflow.Workflow
	var m *workflow.Matrices
	var cmin, cmax float64
	if spec.inline {
		t := rec.now()
		var err error
		if sc.cat, err = decodeBody(sc, d.in.bodies[spec.key], sc.w, sc.cat); err != nil {
			return err
		}
		rec.child(root, "encoding.decode", "", t, req)
		t = rec.now()
		if sc.m, err = sc.w.BuildMatricesInto(sc.cat, cloud.HourlyRoundUp, sc.m); err != nil {
			return err
		}
		sc.m.BuildOptions()
		cmin, cmax = sc.m.BudgetRange(sc.w)
		rec.child(root, "workflow.bind", "", t, req)
		w, m = sc.w, sc.m
	} else {
		p := d.in.pairs[spec.key]
		snap := d.t.srv.Snapshot()
		m, cmin, cmax, _ = snap.Pair(p.wf, p.cat)
		w = snap.Workflows[p.wf]
		if spec.grid && !spec.sim {
			return nil // a staircase hit: no stage of its own runs
		}
	}

	alg, err := engine(sc.algs, spec.alg)
	if err != nil {
		return err
	}
	budget := sched.BudgetAt(cmin, cmax, spec.frac)
	t := rec.now()
	s, err := alg.ScheduleInto(sc.dst[spec.alg], w, m, budget)
	if err != nil {
		return err
	}
	sc.dst[spec.alg] = s
	rec.child(root, "sched.solve", spec.alg, t, req)

	t = rec.now()
	sc.times = m.TimesInto(s, sc.times)
	tm, err := dag.NewTiming(w.Graph(), sc.times, nil)
	if err != nil {
		return err
	}
	rec.child(root, "dag.med", "", t, req)

	if spec.sim {
		t = rec.now()
		if err := sc.rep.RunInto(sim.Config{Workflow: w, Matrices: m, Schedule: s}, &sc.trace); err != nil {
			return err
		}
		rec.child(root, "sim.replay", "", t, req)
	}
	return e.compare(spec, budget, s, tm.Makespan, m.Cost(s), sc.trace.Makespan, spec.sim)
}

// decodeBody decodes a container request body the way the server does:
// the first record's workflow chunk into w, and its catalog appended to
// dst[:0].
func decodeBody(sc *stageScratch, body []byte, w *workflow.Workflow, dst cloud.Catalog) (cloud.Catalog, error) {
	if err := sc.cr.Reset(bytes.NewReader(body)); err != nil {
		return dst, err
	}
	r, cat, _, err := sc.cr.NextRaw()
	if err != nil {
		return dst, err
	}
	if err := sc.dec.WorkflowInto(r, r.Find(encoding.ChunkWorkflow), w); err != nil {
		return dst, err
	}
	return append(dst[:0], cat...), nil
}

// inproc times Server.Schedule, the in-process entry point, with the
// parameters the HTTP request carries. An inline body is decoded first,
// untimed: Schedule takes the decoded instance.
func inproc(sc *stageScratch, d *driver, spec *reqSpec, req int64, e *expected) error {
	p := serve.Params{Algorithm: spec.alg, UseFraction: true, Fraction: spec.frac, Simulate: spec.sim}
	if spec.inline {
		var err error
		if sc.icat, err = decodeBody(sc, d.in.bodies[spec.key], sc.iw, sc.icat); err != nil {
			return err
		}
		p.Workflow, p.Catalog = sc.iw, sc.icat
	} else {
		pr := d.in.pairs[spec.key]
		p.WorkflowRef, p.CatalogRef = pr.wf, pr.cat
	}
	t := d.rec.now()
	if err := d.t.srv.Schedule(p, &sc.res); err != nil {
		return err
	}
	d.rec.child(-1, "serve.inproc", spec.alg, t, req)
	r := &sc.res
	return e.compare(spec, r.Budget, r.Schedule, r.Makespan, r.Cost, r.Trace.Makespan, spec.sim)
}

// sweeps times one sched.SweepGrid, the staircase build, per library
// pair and staircase algorithm, with the service's default grid.
func sweeps(sc *stageScratch, d *driver) error {
	snap := d.t.srv.Snapshot()
	for _, name := range d.spec.sweepAlgs {
		alg, err := engine(sc.algs, name)
		if err != nil {
			return err
		}
		for _, p := range d.in.pairs {
			m, cmin, cmax, _ := snap.Pair(p.wf, p.cat)
			t := d.rec.now()
			if _, err := sched.SweepGrid(alg, snap.Workflows[p.wf], m, cmin, cmax, sched.GridOptions{}); err != nil {
				return err
			}
			d.rec.child(-1, "sched.sweepgrid", name, t, -1)
		}
	}
	return nil
}
