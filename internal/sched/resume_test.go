package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// This file pins sweeps from a trail (Sweeper.SweepInto) to their
// contract: a solve resumed from any trail returns exactly what
// ScheduleInto returns at that budget, the same schedule or the same
// error.

// trailAlgs are the schedulers whose staircases keep trails.
var trailAlgs = []string{"critical-greedy", "critical-ratio", "all-timedec", "gain-fixpoint", "gain1", "gain3"}

// resumeInput is one instance of the resume pin.
type resumeInput struct {
	name       string
	w          *workflow.Workflow
	m          *workflow.Matrices
	cmin, cmax float64
}

// resumeInputs are the paper sizes, the tied inputs, and hub-shaped
// random instances: gen.Random with 4m edges over a linear catalog, the
// shape of the benchmark's library, whose early modules collect most
// of the edges.
func resumeInputs(t *testing.T) []resumeInput {
	t.Helper()
	var out []resumeInput
	for k, size := range gen.PaperProblemSizes() {
		w, m, cmin, cmax := diffInstance(t, 300+k, size)
		out = append(out, resumeInput{fmt.Sprint(size), w, m, cmin, cmax})
	}
	for _, ti := range tiedInstances(t) {
		out = append(out, resumeInput{ti.name + " " + fmt.Sprint(ti.size), ti.w, ti.m, ti.cmin, ti.cmax})
	}
	rng := rand.New(rand.NewSource(20))
	for _, hub := range []struct{ m, n int }{{30, 5}, {60, 8}, {120, 5}, {200, 8}} {
		w, err := gen.Random(rng, gen.Params{
			Modules: hub.m, Edges: 4 * hub.m, WorkloadMin: 100, WorkloadMax: 1000,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.BuildMatrices(gen.Catalog(hub.n, 3, 1), cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(w)
		out = append(out, resumeInput{fmt.Sprintf("hub m=%d n=%d", hub.m, hub.n), w, m, cmin, cmax})
	}
	return out
}

// resumeBudgets lists the budgets the pin resumes at: every level's own
// budget, a random budget up to the next level (past Cmax for the last),
// the boundary budgets of every first step (boundarySweepBudgets), and
// one budget below Cmin and NaN, which must fail as ScheduleInto does.
func resumeBudgets(rng *rand.Rand, st *Staircase, boundary []float64) []float64 {
	var out []float64
	for k, b := range st.Budgets {
		next := b + float64(0.1*(st.Hi-st.Lo)) + 1
		if k+1 < len(st.Budgets) {
			next = st.Budgets[k+1]
		}
		out = append(out, b, b+float64(rng.Float64()*(next-b)))
	}
	out = append(out, boundary...)
	return append(out, st.Lo-1, math.NaN())
}

// resumeInto resumes sw at budget from tr as Runner.Solve does: a
// one-level sweep that records no trail.
func resumeInto(sw Sweeper, dst workflow.Schedule, w *workflow.Workflow, m *workflow.Matrices, budget float64, tr *Trail) (workflow.Schedule, error) {
	out, err := sw.SweepInto([]workflow.Schedule{dst}, w, m, []float64{budget}, tr, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// requireResumeMatches resumes sw at budget from tr and fails unless the
// result equals want/werr, one.ScheduleInto's answer at that budget.
func requireResumeMatches(t *testing.T, label string, sw Sweeper, dst workflow.Schedule, in resumeInput, budget float64, tr *Trail, want workflow.Schedule, werr error) workflow.Schedule {
	t.Helper()
	got, err := resumeInto(sw, dst, in.w, in.m, budget, tr)
	switch {
	case werr != nil:
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: ScheduleInto fails with %v, the resume returned %v", label, werr, err)
		}
		return dst
	case err != nil:
		t.Fatalf("%s: the resume failed (%v) but ScheduleInto solves", label, err)
	case !got.Equal(want):
		t.Fatalf("%s: resumed schedule differs from ScheduleInto\n got: %v\nwant: %v", label, got, want)
	}
	return got
}

// TestTrailsMatchScheduleInto is the resume pin. For every scheduler
// that keeps trails it builds the instance's staircase and resumes each
// pin budget from every level at or below it, and from the level just
// above it, where the resume must solve cold. Each answer must equal a
// fresh ScheduleInto. (The name leaves out "Resume": CI repeats the
// concurrent resume tests under -race by that name, and this pin is
// too slow to repeat.)
func TestTrailsMatchScheduleInto(t *testing.T) {
	inputs := resumeInputs(t)
	for a, name := range trailAlgs {
		seed := int64(40 + a)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sw, one, grid := mustInto(t, name).(Sweeper), mustInto(t, name), mustInto(t, name)
			rng := rand.New(rand.NewSource(seed))
			var dst workflow.Schedule
			for _, in := range inputs {
				st, err := SweepGrid(grid, in.w, in.m, in.cmin, in.cmax, GridOptions{})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, in.name, err)
				}
				if st.Trails == nil {
					t.Fatalf("%s on %s: staircase kept no trails", name, in.name)
				}
				boundary := boundarySweepBudgets(in.w, in.m, in.cmin)
				for _, b := range resumeBudgets(rng, st, boundary) {
					want, werr := one.ScheduleInto(nil, in.w, in.m, b)
					below, hit := st.Lookup(b)
					if hit {
						below++
					}
					// Levels [0, below) lie at or below b; level below, if
					// any, lies above it.
					for k := 0; k <= below && k < st.Levels(); k++ {
						label := fmt.Sprintf("%s on %s at budget %v from level %d (budget %v)", name, in.name, b, k, st.Budgets[k])
						dst = requireResumeMatches(t, label, sw, dst, in, b, st.Trails[k], want, werr)
					}
				}
				b := in.cmin + rng.Float64()*(in.cmax-in.cmin)
				want, werr := one.ScheduleInto(nil, in.w, in.m, b)
				requireResumeMatches(t, name+" on "+in.name+" from nil", sw, dst, in, b, nil, want, werr)
			}
		})
	}
}

// TestResumeForeignTrailSolvesCold: a trail of another Greedy
// configuration, of GAIN, or of an instance rebuilt in place behind the
// same pointers (another graph version and matrices epoch) is ignored,
// and the solve equals ScheduleInto.
func TestResumeForeignTrailSolvesCold(t *testing.T) {
	size := gen.ProblemSize{M: 40, E: 434, N: 6}
	var b gen.Builder
	var m *workflow.Matrices
	build := func(seed int64) (*workflow.Workflow, float64, float64) {
		w, cat, err := b.Instance(rand.New(rand.NewSource(seed)), size)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = w.BuildMatricesInto(cat, cloud.HourlyRoundUp, m); err != nil {
			t.Fatal(err)
		}
		cmin, cmax := m.BudgetRange(w)
		return w, cmin, cmax
	}
	w, cmin, cmax := build(1)
	stairs := map[string]*Staircase{}
	for _, name := range trailAlgs {
		st, err := SweepGrid(mustInto(t, name), w, m, cmin, cmax, GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stairs[name] = st
	}
	rng := rand.New(rand.NewSource(3))
	check := func(label string, w *workflow.Workflow, cmin, cmax float64, foreign func(name string) []*Trail) {
		for _, name := range trailAlgs {
			sw, one := mustInto(t, name).(Sweeper), mustInto(t, name)
			for _, tr := range foreign(name) {
				bud := cmin + rng.Float64()*(cmax-cmin)
				want, werr := one.ScheduleInto(nil, w, m, bud)
				in := resumeInput{label, w, m, cmin, cmax}
				requireResumeMatches(t, fmt.Sprintf("%s %s at %v", name, label, bud), sw, nil, in, bud, tr, want, werr)
			}
		}
	}
	check("other configuration", w, cmin, cmax, func(name string) []*Trail {
		var out []*Trail
		for _, other := range trailAlgs {
			if other == name || (name == "gain1" && other == "gain3") || (name == "gain3" && other == "gain1") {
				continue
			}
			out = append(out, stairs[other].Trails...)
		}
		return out
	})
	wB, cminB, cmaxB := build(2)
	if wB != w {
		t.Fatal("instance B was not rebuilt behind instance A's pointers")
	}
	check("rebuilt in place", wB, cminB, cmaxB, func(name string) []*Trail { return stairs[name].Trails })
}

// TestSweepsFromTrailsMatchScheduleInto covers the call shapes of
// SweepInto that no caller makes: sweeps of several levels from a trail,
// recording trails or not, whose first level lies at, above or below the
// trail's level (below, the sweep starts cold). Every level must equal a
// fresh ScheduleInto, and so must a one-level resume from each trail a
// recorded sweep returns.
func TestSweepsFromTrailsMatchScheduleInto(t *testing.T) {
	inputs := resumeInputs(t)
	for a, name := range trailAlgs {
		seed := int64(60 + a)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sw, one, grid := mustInto(t, name).(Sweeper), mustInto(t, name), mustInto(t, name)
			rng := rand.New(rand.NewSource(seed))
			for _, in := range inputs {
				st, err := SweepGrid(grid, in.w, in.m, in.cmin, in.cmax, GridOptions{})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, in.name, err)
				}
				for r := 0; r < 8; r++ {
					k := rng.Intn(st.Levels())
					lo := st.Budgets[k]
					switch rng.Intn(3) {
					case 1:
						lo += rng.Float64() * (in.cmax - lo)
					case 2:
						lo -= rng.Float64() * (lo - in.cmin)
					}
					budgets := randomSweepBudgets(rng, lo, in.cmax)
					var trails []*Trail
					if r%2 == 1 {
						trails = make([]*Trail, len(budgets))
					}
					label := fmt.Sprintf("%s on %s from level %d (budget %v), recorded %v, budgets %v", name, in.name, k, st.Budgets[k], trails != nil, budgets)
					got, err := sw.SweepInto(nil, in.w, in.m, budgets, st.Trails[k], trails)
					for l, b := range budgets {
						want, werr := one.ScheduleInto(nil, in.w, in.m, b)
						if werr != nil {
							if err == nil || err.Error() != werr.Error() {
								t.Fatalf("%s: level %d fails with %v, sweep returned %v", label, l, werr, err)
							}
							break
						}
						if err != nil {
							t.Fatalf("%s: sweep failed (%v) but level %d solves", label, err, l)
						}
						if !got[l].Equal(want) {
							t.Fatalf("%s: level %d differs from ScheduleInto\n got: %v\nwant: %v", label, l, got[l], want)
						}
						if trails != nil {
							requireResumeMatches(t, fmt.Sprintf("%s: trail of level %d", label, l), sw, nil, in, b, trails[l], want, nil)
						}
					}
				}
			}
		})
	}
}

// TestConcurrentResume has several goroutines, each with its own
// scheduler, resume from one staircase's trails at once. Trails are
// shared read-only; under -race a write to one fails here.
func TestConcurrentResume(t *testing.T) {
	size := gen.ProblemSize{M: 60, E: 842, N: 7}
	w, m, cmin, cmax := diffInstance(t, 7, size)
	for _, name := range []string{"critical-greedy", "gain3"} {
		st, err := SweepGrid(mustInto(t, name), w, m, cmin, cmax, GridOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		budgets := make([]float64, 64)
		wants := make([]workflow.Schedule, len(budgets))
		one := mustInto(t, name)
		for k := range budgets {
			budgets[k] = cmin + rng.Float64()*(cmax-cmin)
			if wants[k], err = one.ScheduleInto(nil, w, m, budgets[k]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sw := mustInto(t, name).(Sweeper)
				var dst workflow.Schedule
				for r := 0; r < 4; r++ {
					for k := range budgets {
						k := (k + 16*g) % len(budgets)
						lev, hit := st.Lookup(budgets[k])
						if !hit {
							lev--
						}
						got, err := resumeInto(sw, dst, w, m, budgets[k], st.Trails[lev])
						if err != nil {
							errs <- err
							return
						}
						if !got.Equal(wants[k]) {
							errs <- fmt.Errorf("%s goroutine %d at budget %v: %v, want %v", name, g, budgets[k], got, wants[k])
							return
						}
						dst = got
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestStaircaseTrailsShareSteps checks the storage contract of
// SweepGrid's trails: each distinct trail owns only the steps it ran
// (its last run) and shares its held prefix with the trail it resumed
// from, TrailBytes counts each step once, no trail was recorded above
// its level's budget, and every trail replays to its level's schedule.
func TestStaircaseTrailsShareSteps(t *testing.T) {
	size := gen.ProblemSize{M: 100, E: 2344, N: 9}
	w, m, cmin, cmax := diffInstance(t, 11, size)
	st, err := SweepGrid(CriticalGreedy(), w, m, cmin, cmax, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	owned, total := 0, 0
	seen := map[*Trail]bool{}
	for k, tr := range st.Trails {
		if tr.budget > st.Budgets[k] {
			t.Fatalf("level %d: trail recorded at %v, above the level's budget %v", k, tr.budget, st.Budgets[k])
		}
		s := m.LeastCost(w)
		_, n := tr.runs.held(st.Budgets[k])
		tr.runs.replay(s, n-1)
		if want := st.Scheds[st.Level[k]]; !s.Equal(want) {
			t.Fatalf("level %d: trail replays to %v, level holds %v", k, s, want)
		}
		total += n
		if !seen[tr] {
			seen[tr] = true
			owned += len(tr.runs[len(tr.runs)-1])
		}
	}
	if owned >= total {
		t.Fatalf("trails own %d steps of %d: no level shared a held prefix", owned, total)
	}
	want := int64(owned) * int64(unsafe.Sizeof(sweepStep{}))
	if got := st.TrailBytes(); got < want || got > want+int64(len(seen))*1024 {
		t.Fatalf("TrailBytes = %d, want about %d for %d owned steps", got, want, owned)
	}
	t.Logf("%d levels, %d distinct trails, %d steps owned of %d held in full", st.Levels(), len(seen), owned, total)
}
