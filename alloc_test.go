package medcc

import (
	"testing"

	"medcc/internal/sched"
)

// The solvers' zero-allocation contract: once ScheduleInto has grown its
// scratch on an instance, every further solve of it into the same
// destination allocates nothing. Each pin solves the instance of the
// benchmark it is named after (bench_test.go). Optimal runs at Workers: 1
// because its goroutine fan-out allocates.

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
	requireZeroSolveAllocs(t, &sched.GAIN{Variant: 3}, instance100)
}

func TestGAIN3_500Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.GAIN{Variant: 3}, instance500)
}

func TestGain3WRF100Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.Gain3WRF{}, instance100)
}

func TestOptimal8Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.Optimal{Workers: 1}, instanceOpt8)
}

func TestOptimal10Allocs(t *testing.T) {
	requireZeroSolveAllocs(t, &sched.Optimal{Workers: 1}, instanceOpt10)
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
