package dag

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestTimingChain(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	tm, err := NewTiming(g, []float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tm.Makespan, 6) {
		t.Fatalf("makespan = %v, want 6", tm.Makespan)
	}
	wantEST := []float64{0, 1, 3}
	wantEFT := []float64{1, 3, 6}
	for i := range wantEST {
		if !almostEq(tm.EST[i], wantEST[i]) || !almostEq(tm.EFT[i], wantEFT[i]) {
			t.Fatalf("node %d: EST/EFT = %v/%v, want %v/%v", i, tm.EST[i], tm.EFT[i], wantEST[i], wantEFT[i])
		}
		if !almostEq(tm.Slack(i), 0) {
			t.Fatalf("chain node %d has slack %v", i, tm.Slack(i))
		}
	}
}

func TestTimingDiamondSlack(t *testing.T) {
	g := New()
	g.AddNodes(4)
	g.MustEdge(0, 1)
	g.MustEdge(0, 2)
	g.MustEdge(1, 3)
	g.MustEdge(2, 3)
	// Branch via node 1 takes 5, via node 2 takes 2: node 2 has slack 3.
	tm, err := NewTiming(g, []float64{1, 5, 2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tm.Makespan, 7) {
		t.Fatalf("makespan = %v, want 7", tm.Makespan)
	}
	if !almostEq(tm.Slack(2), 3) {
		t.Fatalf("slack(2) = %v, want 3", tm.Slack(2))
	}
	if tm.IsCritical(2) {
		t.Fatal("node 2 wrongly critical")
	}
	for _, i := range []int{0, 1, 3} {
		if !tm.IsCritical(i) {
			t.Fatalf("node %d should be critical", i)
		}
	}
	if cp := tm.CriticalPath(); !reflect.DeepEqual(cp, []int{0, 1, 3}) {
		t.Fatalf("critical path = %v", cp)
	}
	if cn := tm.CriticalNodes(); !reflect.DeepEqual(cn, []int{0, 1, 3}) {
		t.Fatalf("critical nodes = %v", cn)
	}
}

func TestTimingEdgeWeights(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.MustEdge(0, 1)
	g.MustEdge(0, 2)
	// Transfer 0->2 takes 10, making the lighter branch critical.
	ew := func(u, v int) float64 {
		if u == 0 && v == 2 {
			return 10
		}
		return 0
	}
	tm, err := NewTiming(g, []float64{1, 5, 1}, ew)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tm.Makespan, 12) {
		t.Fatalf("makespan = %v, want 12", tm.Makespan)
	}
	if !tm.IsCritical(2) || tm.IsCritical(1) {
		t.Fatal("transfer delay did not shift the critical path")
	}
	if !almostEq(tm.EST[2], 11) {
		t.Fatalf("EST[2] = %v, want 11", tm.EST[2])
	}
}

func TestTimingParallelSources(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.MustEdge(0, 2)
	g.MustEdge(1, 2)
	tm, err := NewTiming(g, []float64{4, 9, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tm.Makespan, 10) {
		t.Fatalf("makespan = %v, want 10", tm.Makespan)
	}
	if !almostEq(tm.Slack(0), 5) {
		t.Fatalf("slack(0) = %v, want 5", tm.Slack(0))
	}
}

func TestTimingRejectsBadInput(t *testing.T) {
	g := New()
	g.AddNodes(2)
	g.MustEdge(0, 1)
	if _, err := NewTiming(g, []float64{1}, nil); err == nil {
		t.Fatal("wrong weight count accepted")
	}
	if _, err := NewTiming(g, []float64{1, -2}, nil); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewTiming(g, []float64{1, math.NaN()}, nil); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewTiming(g, []float64{1, math.Inf(1)}, nil); err == nil {
		t.Fatal("Inf weight accepted")
	}
	cyc := New()
	cyc.AddNodes(2)
	cyc.MustEdge(0, 1)
	cyc.MustEdge(1, 0)
	if _, err := NewTiming(cyc, []float64{1, 1}, nil); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestTimingSingleNode(t *testing.T) {
	g := New()
	g.AddNodes(1)
	tm, err := NewTiming(g, []float64{3.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tm.Makespan, 3.5) || !tm.IsCritical(0) {
		t.Fatal("single node timing wrong")
	}
	if cp := tm.CriticalPath(); !reflect.DeepEqual(cp, []int{0}) {
		t.Fatalf("critical path = %v", cp)
	}
}

func TestTimingZeroWeights(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	tm, err := NewTiming(g, []float64{0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tm.Makespan, 0) {
		t.Fatalf("makespan = %v, want 0", tm.Makespan)
	}
	for i := 0; i < 3; i++ {
		if !tm.IsCritical(i) {
			t.Fatalf("node %d not critical in zero-weight chain", i)
		}
	}
}

// Properties over random weighted DAGs.
func TestTimingPropertiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng, 3+rng.Intn(20), rng.Intn(60))
		w := make([]float64, g.NumNodes())
		for i := range w {
			w[i] = rng.Float64() * 10
		}
		tm, err := NewTiming(g, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.NumNodes(); i++ {
			// EST <= LST, EFT <= LFT, finish-start == weight, where
			// LFT = Makespan - Tail and LST = LFT - weight.
			lft := tm.Makespan - tm.Tail[i]
			lst := lft - w[i]
			if tm.EST[i] > lst+Eps || tm.EFT[i] > lft+Eps {
				t.Fatalf("trial %d node %d: earliest after latest", trial, i)
			}
			if !almostEq(tm.EFT[i]-tm.EST[i], w[i]) {
				t.Fatalf("trial %d node %d: duration mismatch", trial, i)
			}
			if tm.EFT[i] > tm.Makespan+Eps {
				t.Fatalf("trial %d node %d: EFT beyond makespan", trial, i)
			}
			// Precedence feasibility.
			for _, v := range g.Succ(i) {
				if tm.EST[v] < tm.EFT[i]-Eps {
					t.Fatalf("trial %d: succ %d starts before pred %d ends", trial, v, i)
				}
			}
		}
		// The critical path length must equal the makespan and its nodes
		// must be consecutive-by-edges and all critical.
		cp := tm.CriticalPath()
		sum := 0.0
		for k, u := range cp {
			sum += w[u]
			if !tm.IsCritical(u) {
				t.Fatalf("trial %d: non-critical node %d on critical path", trial, u)
			}
			if k > 0 && !g.HasEdge(cp[k-1], u) {
				t.Fatalf("trial %d: critical path not edge-connected", trial)
			}
		}
		if !almostEq(sum, tm.Makespan) {
			t.Fatalf("trial %d: critical path length %v != makespan %v", trial, sum, tm.Makespan)
		}
	}
}

func TestTimingMakespanMonotoneInWeights(t *testing.T) {
	// Property: increasing a single node weight never decreases makespan.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := randomDAG(rng, 10, 25)
		w := make([]float64, g.NumNodes())
		for i := range w {
			w[i] = rng.Float64() * 5
		}
		base, err := NewTiming(g, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(len(w))
		w2 := append([]float64(nil), w...)
		w2[i] += 1 + rng.Float64()
		bumped, err := NewTiming(g, w2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bumped.Makespan < base.Makespan-Eps {
			t.Fatalf("trial %d: makespan decreased after weight bump", trial)
		}
		// Bumping a critical node by d must increase makespan... not
		// necessarily by d (another path may dominate), but strictly.
		if base.IsCritical(i) && bumped.Makespan <= base.Makespan+Eps {
			t.Fatalf("trial %d: bumping critical node %d left makespan unchanged", trial, i)
		}
	}
}
