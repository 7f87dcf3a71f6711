package medcc

import (
	"testing"

	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// The solvers' zero-allocation contract: once ScheduleInto has grown its
// scratch on an instance, every further solve of it into the same
// destination allocates nothing. Each pin solves the instance of the
// benchmark it is named after (bench_test.go).

func TestCriticalGreedy20Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, sched.CriticalGreedy(), instance20)
}

func TestCriticalGreedy100Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, sched.CriticalGreedy(), instance100)
}

func TestCriticalGreedy500Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, sched.CriticalGreedy(), instance500)
}

func TestCriticalGreedy2000Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, sched.CriticalGreedy(), instance2000)
}

func TestCriticalGreedyTied1000Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, sched.CriticalGreedy(), instanceTied1000)
}

func TestGAIN3_100Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.GAIN{Label: "gain3"}, instance100)
}

func TestGAIN3_500Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.GAIN{Label: "gain3"}, instance500)
}

// TestGAIN3RebindAllocs pins BenchmarkGAIN3Rebind's steady state: once
// a GAIN has solved every paperSizeSolves instance, a pass that rebinds
// it to each in turn allocates nothing. AllocsPerRun counts whole
// passes, so one allocation on one instance fails it.
func TestGAIN3RebindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	jobs := paperSizeSolves(t)
	g := &sched.GAIN{Label: "gain3"}
	var dst workflow.Schedule
	pass := func() {
		for _, j := range jobs {
			s, err := g.ScheduleInto(dst, j.w, j.m, j.budget)
			if err != nil {
				t.Fatal(err)
			}
			dst = s
		}
	}
	pass()
	if avg := testing.AllocsPerRun(1, pass); avg != 0 {
		t.Errorf("a GAIN3 pass rebinding to each paper size allocates %v allocs/op, want 0", avg)
	}
}

func TestGain3WRF100Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.Gain3WRF{}, instance100)
}

func TestOptimal8Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.Optimal{}, instanceOpt8)
}

func TestOptimal10Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.Optimal{}, instanceOpt10)
}

// TestOptimalDeadline10Allocs pins the exact dual on the same engine: a
// reused solver's Deadline allocates only the Result and the schedule
// it returns.
func TestOptimalDeadline10Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, m, d := midDeadline(t, instanceOpt10)
	o := &sched.Optimal{}
	solve := func() {
		if _, err := o.Deadline(w, m, d); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if avg := testing.AllocsPerRun(10, solve); avg != 2 {
		t.Errorf("warm Optimal.Deadline allocates %v allocs/op, want 2 (its Result and schedule)", avg)
	}
}

// The sweeps hold the same contract: once SweepInto has grown its scratch,
// a repeat sweep over 20 levels of instance100's budget range into the
// same destinations allocates nothing.

func TestCriticalGreedySweepAllocs(t *testing.T) {
	requireZeroSweepAllocs(t, sched.CriticalGreedy(), instance100)
}

func TestGAIN3SweepAllocs(t *testing.T) {
	requireZeroSweepAllocs(t, &sched.GAIN{Label: "gain3"}, instance100)
}

func requireZeroSweepAllocs(t *testing.T, sw sched.Sweeper, inst instance) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, m, _ := inst(t)
	budgets := sweepLevels(w, m)
	dst, err := sw.SweepInto(nil, w, m, budgets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sw.SweepInto(dst, w, m, budgets, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("repeat %T.SweepInto allocates %v allocs/op, want 0", sw, avg)
	}
}

// TestRunnerMEDAllocs pins the campaign's MED evaluation: once a Runner
// has evaluated the larger instance, MED allocates nothing, even when
// consecutive calls alternate between instances of different sizes.
func TestRunnerMEDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	type eval struct {
		w *workflow.Workflow
		m *workflow.Matrices
		s workflow.Schedule
	}
	var evals []eval
	for _, inst := range []instance{instance20, instance100} {
		w, m, budget := inst(t)
		s, err := sched.CriticalGreedy().Schedule(w, m, budget)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, eval{w, m, s})
	}
	var r sched.Runner
	medAll := func() {
		for _, e := range evals {
			if _, err := r.MED(e.w, e.m, e.s); err != nil {
				t.Fatal(err)
			}
		}
	}
	medAll()
	if avg := testing.AllocsPerRun(10, medAll); avg != 0 {
		t.Errorf("warm Runner.MED allocates %v allocs/op, want 0", avg)
	}
}

func requireZeroSolveAllocs(t *testing.T, sch sched.IntoScheduler, inst instance) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w, m, budget := inst(t)
	dst, err := sch.ScheduleInto(nil, w, m, budget)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sch.ScheduleInto(dst, w, m, budget); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm %T.ScheduleInto allocates %v allocs/op, want 0", sch, avg)
	}
}
