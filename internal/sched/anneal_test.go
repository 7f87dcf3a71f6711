package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
)

func TestAnnealInfeasible(t *testing.T) {
	w, m := paperSetup(t)
	if _, err := (&Anneal{Seed: 1}).Schedule(w, m, 40); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestAnnealNeverWorseThanItsSeedSchedule(t *testing.T) {
	w, m := paperSetup(t)
	for _, b := range []float64{50, 57, 64} {
		cg, err := Run(CriticalGreedy(), w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		an, err := Run(&Anneal{Seed: 1}, w, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if an.Cost > b+1e-9 {
			t.Fatalf("B=%v: anneal over budget", b)
		}
		if an.MED > cg.MED+1e-9 {
			t.Fatalf("B=%v: anneal %v worse than CG seed %v", b, an.MED, cg.MED)
		}
	}
}

func TestAnnealReachesOptimumOnExample(t *testing.T) {
	w, m := paperSetup(t)
	an, err := Run(&Anneal{Seed: 1}, w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(&Optimal{}, w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(an.MED-opt.MED) > 1e-9 {
		t.Fatalf("anneal %v vs optimal %v", an.MED, opt.MED)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	w, m := paperSetup(t)
	a1, err := (&Anneal{Seed: 4}).Schedule(w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := (&Anneal{Seed: 4}).Schedule(w, m, 57)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(a2) {
		t.Fatal("same seed produced different schedules")
	}
}

func TestAnnealOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 3; trial++ {
		wf, cat, err := gen.Instance(rng, gen.ProblemSize{M: 12, E: 25, N: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := wf.BuildMatrices(cat, cloud.HourlyRoundUp)
		cmin, cmax := m.BudgetRange(wf)
		b := (cmin + cmax) / 2
		an, err := Run(&Anneal{Seed: int64(trial)}, wf, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if an.Cost > b+1e-9 || math.IsNaN(an.MED) {
			t.Fatalf("trial %d: bad result %+v", trial, an)
		}
	}
}
