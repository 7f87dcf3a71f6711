package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"medcc/internal/cloud"
	"medcc/internal/sched"
	"medcc/internal/serve"
	"medcc/internal/sim"
	"medcc/internal/workflow"
)

var errMismatch = errors.New("response differs from the direct solve")

// expected is what a request must return: the direct sched.Run answer
// at sched.BudgetAt of its fraction, and for a simulated request the
// sim.Replayer makespan of that schedule.
type expected struct {
	budget   float64
	schedule workflow.Schedule
	med      float64
	cost     float64
	simMED   float64
}

type oracleKey struct {
	key  int
	alg  string
	frac uint64
	sim  bool
}

// oracle computes expected answers, memoized per distinct request.
type oracle struct {
	srv   *serve.Server
	in    *inputs
	memo  map[oracleKey]*expected
	bound []*workflow.Matrices // per inline instance, built on first use
	rep   sim.Replayer
}

func newOracle(srv *serve.Server, in *inputs) *oracle {
	return &oracle{srv: srv, in: in, memo: map[oracleKey]*expected{}, bound: make([]*workflow.Matrices, len(in.insts))}
}

// instanceOf returns the workflow, matrices and budget range a spec is
// answered on: the snapshot's prebuilt pair for a library ref, the
// generated instance for an inline body.
func (o *oracle) instanceOf(s *reqSpec) (*workflow.Workflow, *workflow.Matrices, float64, float64, error) {
	if !s.inline {
		p := o.in.pairs[s.key]
		snap := o.srv.Snapshot()
		m, cmin, cmax, ok := snap.Pair(p.wf, p.cat)
		if !ok {
			return nil, nil, 0, 0, fmt.Errorf("pair %s/%s missing from the snapshot", p.wf, p.cat)
		}
		return snap.Workflows[p.wf], m, cmin, cmax, nil
	}
	inst := o.in.insts[s.key]
	if o.bound[s.key] == nil {
		m, err := inst.w.BuildMatrices(inst.cat, cloud.HourlyRoundUp)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		m.BuildOptions()
		o.bound[s.key] = m
	}
	m := o.bound[s.key]
	cmin, cmax := m.BudgetRange(inst.w)
	return inst.w, m, cmin, cmax, nil
}

func (o *oracle) expect(s *reqSpec) (*expected, error) {
	k := oracleKey{key: s.key, alg: s.alg, frac: math.Float64bits(s.frac), sim: s.sim}
	if e, ok := o.memo[k]; ok {
		return e, nil
	}
	w, m, cmin, cmax, err := o.instanceOf(s)
	if err != nil {
		return nil, err
	}
	alg, err := sched.Get(s.alg)
	if err != nil {
		return nil, err
	}
	e := &expected{budget: sched.BudgetAt(cmin, cmax, s.frac)}
	r, err := sched.Run(alg, w, m, e.budget)
	if err != nil {
		return nil, err
	}
	e.schedule, e.med, e.cost = r.Schedule, r.MED, r.Cost
	if s.sim {
		tr, err := o.rep.Run(sim.Config{Workflow: w, Matrices: m, Schedule: r.Schedule})
		if err != nil {
			return nil, err
		}
		e.simMED = tr.Makespan
	}
	o.memo[k] = e
	return e, nil
}

// response is the part of a /schedule response the oracle compares.
type response struct {
	Budget   float64 `json:"budget"`
	Schedule []int   `json:"schedule"`
	Makespan float64 `json:"makespan"`
	Cost     float64 `json:"cost"`
	Trace    *struct {
		Makespan float64 `json:"makespan"`
	} `json:"trace"`
}

// check decodes a response body and compares it bit for bit with the
// direct answer.
func (o *oracle) check(s *reqSpec, body []byte) error {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	e, err := o.expect(s)
	if err != nil {
		return err
	}
	simMED := math.NaN()
	if r.Trace != nil {
		simMED = r.Trace.Makespan
	}
	return e.compare(s, r.Budget, r.Schedule, r.Makespan, r.Cost, simMED, r.Trace != nil)
}

// compare matches an answer against e, every float by its bits.
func (e *expected) compare(s *reqSpec, budget float64, schedule []int, med, cost, simMED float64, hasTrace bool) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(budget, e.budget):
		return fmt.Errorf("%w: %s budget %v, want %v", errMismatch, s.url, budget, e.budget)
	case !workflow.Schedule(schedule).Equal(e.schedule):
		return fmt.Errorf("%w: %s schedule differs", errMismatch, s.url)
	case !same(med, e.med) || !same(cost, e.cost):
		return fmt.Errorf("%w: %s (MED %v, cost %v), want (%v, %v)", errMismatch, s.url, med, cost, e.med, e.cost)
	case hasTrace != s.sim:
		return fmt.Errorf("%w: %s trace present = %v", errMismatch, s.url, hasTrace)
	case s.sim && !same(simMED, e.simMED):
		return fmt.Errorf("%w: %s simulated makespan %v, want %v", errMismatch, s.url, simMED, e.simMED)
	}
	return nil
}

// verify checks every saved response and returns how many failed,
// printing the first failure.
func (o *oracle) verify(logs []clientLog) int64 {
	var failed int64
	var first error
	for k := range logs {
		for _, sr := range logs[k].saved {
			if err := o.check(&o.in.ring[sr.ring], sr.body); err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
	}
	if first != nil {
		fmt.Fprintf(os.Stderr, "bench: %d responses failed the oracle; first: %v\n", failed, first)
	}
	return failed
}
