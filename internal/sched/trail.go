package sched

import (
	"unsafe"

	"medcc/internal/workflow"
)

// Trail is the record a Sweeper's run leaves at one budget. For the
// Greedy family it is each step's cost, accept and certificate
// (sweepStep); for GAIN1/GAIN3 it is the instance's sorted upgrade list,
// each task's cost frontier (costFrontier). A sweep from a trail
// (Sweeper.SweepInto) replays the part of it that still holds at a
// larger budget and runs the rest, so a level resumed from the trail of
// a smaller budget is exactly what ScheduleInto returns.
//
// A trail is immutable once built and aliases no scheduler scratch, so
// any number of goroutines may resume from one trail at once. Trails come
// from recorded sweeps, SweepGrid's among them (Staircase.Trails); the
// nil Trail is empty, and a sweep from it, or from a trail of another
// instance, matrices epoch or scheduler configuration, starts cold.
type Trail struct {
	kind trailKind
	// The bound instance the trail was recorded on.
	w          *workflow.Workflow
	m          *workflow.Matrices
	wver, mver uint64
	// budget is the lowest budget the trail was recorded at. A Greedy
	// trail is exact only at or above it; a GAIN list at any budget.
	budget float64

	// runs holds a Greedy trail's steps in order. A trail resumed from
	// another shares the held prefix with it and owns only its last run.
	runs stepRuns
	// pass is GAIN1/GAIN3's sorted upgrade list: the options of each
	// task's cost frontier, the only ones a pass can take, in selection
	// order.
	pass []gainMove
}

// trailKind identifies the scheduler configuration a trail replays
// under: one kind per (CandidateSet, Criterion) of Greedy, and one for
// GAIN1/GAIN3, whose sorted lists are identical.
type trailKind uint8

const (
	gainTrail   trailKind = iota + 1 // GAIN1 and GAIN3
	greedyTrail                      // + 2*CandidateSet + Criterion
)

// resumable reports whether a solve at budget by a scheduler of the given
// kind may replay tr: same kind, same bound instance (pointers, graph
// version and matrices epoch), recorded at or below budget. A NaN budget
// is never resumable.
func (tr *Trail) resumable(kind trailKind, w *workflow.Workflow, m *workflow.Matrices, budget float64) bool {
	return tr != nil && tr.kind == kind && tr.w == w && tr.m == m &&
		tr.wver == w.Graph().Version() && tr.mver == m.Epoch() && budget >= tr.budget
}

// bytes is the resident size of the steps or list a trail owns: its last
// run (the held prefix belongs to the trail it was resumed from) or its
// sorted list, plus the trail's own header and run headers. Summing bytes
// over the distinct trails of a staircase counts every step once.
func (tr *Trail) bytes() int64 {
	if tr == nil {
		return 0
	}
	b := int64(unsafe.Sizeof(*tr)) + int64(len(tr.runs))*int64(unsafe.Sizeof([]sweepStep(nil)))
	if n := len(tr.runs); n > 0 {
		b += int64(len(tr.runs[n-1])) * int64(unsafe.Sizeof(sweepStep{}))
	}
	return b + int64(len(tr.pass))*int64(unsafe.Sizeof(gainMove{}))
}

// stepRuns is a recorded Greedy run as consecutive slices of steps: the
// prefix a trail held from the trail it resumed from, then its own run.
type stepRuns [][]sweepStep

// held returns the length p of the longest prefix of steps that holds at
// budget b (sweepStep.holds) and the total step count n. The steps come
// from a run at a budget no larger than b.
//
// medcc:allocfree
func (r stepRuns) held(b float64) (p, n int) {
	for _, run := range r {
		n += len(run)
	}
	for _, run := range r {
		for k := range run {
			if !run[k].holds(b) {
				return p, n
			}
			p++
		}
	}
	return p, n
}

// at returns step k.
//
// medcc:allocfree
func (r stepRuns) at(k int) *sweepStep {
	for _, run := range r {
		if k < len(run) {
			return &run[k]
		}
		k -= len(run)
	}
	panic("sched: trail step out of range")
}

// replay applies the accepts of the first p steps to s.
//
// medcc:allocfree
func (r stepRuns) replay(s workflow.Schedule, p int) {
	for _, run := range r {
		if p <= 0 {
			return
		}
		for k := range run[:min(p, len(run))] {
			s[run[k].mod] = int(run[k].typ)
		}
		p -= len(run)
	}
}

// appendHeld appends the first p steps of r to dst.
//
// medcc:allocfree
func (r stepRuns) appendHeld(dst []sweepStep, p int) []sweepStep {
	for _, run := range r {
		if p <= 0 {
			break
		}
		dst = append(dst, run[:min(p, len(run))]...)
		p -= len(run)
	}
	return dst
}

// extend returns the runs of a trail that held the first p steps of r and
// then ran own: r's slices cut at p, sharing their backing arrays, then
// own.
func (r stepRuns) extend(p int, own []sweepStep) stepRuns {
	var out stepRuns
	for _, run := range r {
		if p <= 0 {
			break
		}
		out = append(out, run[:min(p, len(run)):min(p, len(run))])
		p -= len(run)
	}
	return append(out, own)
}

// TrailBytes sums the resident size over the distinct trails of a staircase, so each
// recorded step and each sorted list is counted once however many levels
// share it.
func (st *Staircase) TrailBytes() int64 {
	var b int64
	seen := map[*Trail]bool{}
	for _, tr := range st.Trails {
		if tr != nil && !seen[tr] {
			seen[tr] = true
			b += tr.bytes()
		}
	}
	return b
}

// gainMove is one entry of GAIN1/GAIN3's sorted upgrade list: the
// option's cost increase and the (task, type) it moves.
type gainMove struct {
	dc       float64
	mod, typ int32
}

// gainPass is GAIN1/GAIN3 at one budget: one pass over the sorted list
// from the least-cost schedule s (cost cmin), taking each affordable
// option of a task not yet moved until the budget is spent. moved is
// cleared scratch, one flag per module.
//
// medcc:allocfree
func gainPass(s workflow.Schedule, cmin float64, pass []gainMove, budget float64, moved []bool) {
	ctmp := cmin
	for _, u := range pass {
		if budget-ctmp <= 0 {
			return
		}
		if moved[u.mod] || u.dc > (budget-ctmp)+costEps {
			continue
		}
		s[u.mod] = int(u.typ)
		moved[u.mod] = true
		ctmp += u.dc
	}
}

// newTrail starts a trail of the given kind on the engine's bound
// instance.
func (e *engine) newTrail(kind trailKind, budget float64) *Trail {
	return &Trail{kind: kind, w: e.w, m: e.m, wver: e.wver, mver: e.mver, budget: budget}
}
