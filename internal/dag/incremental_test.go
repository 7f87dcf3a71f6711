package dag

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomDAG builds a random DAG: edges only go from lower to higher index
// through a random node permutation, so acyclicity is guaranteed while the
// topological order stays non-trivial.
func randomProbDAG(rng *rand.Rand, n int, edgeProb float64) *Graph {
	g := New()
	g.AddNodes(n)
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < edgeProb {
				g.MustEdge(perm[a], perm[b])
			}
		}
	}
	return g
}

func randomWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() * 10
	}
	return w
}

// requireTimingsEqual asserts that two timings agree exactly. The
// incremental passes evaluate the same recurrences in the same order as a
// fresh run, so equality must be bit-for-bit, not just within Eps.
func requireTimingsEqual(t *testing.T, got, want *Timing, ctx string) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %v != %v", ctx, got.Makespan, want.Makespan)
	}
	for i := range want.EST {
		if got.EST[i] != want.EST[i] || got.EFT[i] != want.EFT[i] ||
			got.Tail[i] != want.Tail[i] {
			t.Fatalf("%s: node %d EST/EFT/Tail = %v/%v/%v, want %v/%v/%v",
				ctx, i, got.EST[i], got.EFT[i], got.Tail[i],
				want.EST[i], want.EFT[i], want.Tail[i])
		}
		if got.Slack(i) != want.Slack(i) {
			t.Fatalf("%s: node %d derived Slack = %v, want %v", ctx, i, got.Slack(i), want.Slack(i))
		}
	}
}

// TestUpdateNodeMatchesFreshTiming is the property test behind the
// incremental engine: over random DAGs and random single-weight mutations,
// UpdateNode must land on exactly the state a fresh NewTiming computes and
// report exactly whether the makespan moved. The second pass draws small
// integer weights, so paths tie often and many decreases leave the
// makespan unchanged. After each of those no node may turn critical: the
// rule Critical-Greedy relies on to skip rebuilding its candidate pool.
func TestUpdateNodeMatchesFreshTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stable := 0
	for _, small := range []bool{false, true} {
		draw := func() float64 { return rng.Float64() * 10 }
		trials := 60
		if small {
			draw = func() float64 { return float64(rng.Intn(4)) }
			trials = 1000
		}
		for trial := 0; trial < trials; trial++ {
			n := 2 + rng.Intn(30)
			g := randomProbDAG(rng, n, 0.25)
			weights := make([]float64, n)
			for i := range weights {
				weights[i] = draw()
			}
			inc, err := NewTiming(g, weights, nil)
			if err != nil {
				t.Fatal(err)
			}
			crit := make([]bool, n)
			for mut := 0; mut < 40; mut++ {
				i := rng.Intn(n)
				var w float64
				switch rng.Intn(4) {
				case 0:
					w = 0 // collapse the node
				case 1:
					w = weights[i] // no-op update
				default:
					w = draw()
				}
				before, decrease := inc.Makespan, w < weights[i]
				for u := range crit {
					crit[u] = inc.IsCritical(u)
				}
				moved := inc.UpdateNode(i, w)
				fresh, err := NewTiming(g, append([]float64(nil), weights...), nil)
				if err != nil {
					t.Fatal(err)
				}
				requireTimingsEqual(t, inc, fresh, "UpdateNode")
				if moved != (fresh.Makespan != before) {
					t.Fatalf("UpdateNode(%d, %v) reported moved=%v, makespan %v -> %v",
						i, w, moved, before, fresh.Makespan)
				}
				if !decrease || moved {
					continue
				}
				stable++
				for u, was := range crit {
					if !was && inc.IsCritical(u) {
						t.Fatalf("UpdateNode(%d, %v) kept makespan %v but node %d turned critical",
							i, w, before, u)
					}
				}
			}
		}
	}
	if stable < 1000 {
		t.Fatalf("only %d makespan-preserving decreases: the tie-heavy pass no longer exercises them", stable)
	}
	t.Logf("%d makespan-preserving decreases", stable)
}

// TestUpdateMatchesFreshTiming checks the bulk in-place refresh against a
// fresh construction after replacing every weight.
func TestUpdateMatchesFreshTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(25)
		g := randomProbDAG(rng, n, 0.3)
		weights := randomWeights(rng, n)
		inc, err := NewTiming(g, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			for i := range weights {
				weights[i] = rng.Float64() * 10
			}
			if err := inc.Update(weights); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewTiming(g, append([]float64(nil), weights...), nil)
			if err != nil {
				t.Fatal(err)
			}
			requireTimingsEqual(t, inc, fresh, "Update")
		}
	}
}

// TestWhatIfMakespanMatchesTrialTiming checks the non-mutating probe: the
// hypothetical makespan must equal a fresh timing of the mutated weights,
// and the probe must leave the Timing untouched. The ew case covers the
// edge-weighted probe, which runs full passes instead of the incremental
// one.
func TestWhatIfMakespanMatchesTrialTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		ew   EdgeWeight
	}{
		{"zero", nil},
		{"ew", func(u, v int) float64 { return float64((u+v)%3) * 0.5 }},
	} {
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(25)
			g := randomProbDAG(rng, n, 0.3)
			weights := randomWeights(rng, n)
			inc, err := NewTiming(g, weights, tc.ew)
			if err != nil {
				t.Fatal(err)
			}
			before, err := NewTiming(g, append([]float64(nil), weights...), tc.ew)
			if err != nil {
				t.Fatal(err)
			}
			for probe := 0; probe < 30; probe++ {
				i := rng.Intn(n)
				w := rng.Float64() * 10
				trialW := append([]float64(nil), weights...)
				trialW[i] = w
				fresh, err := NewTiming(g, trialW, tc.ew)
				if err != nil {
					t.Fatal(err)
				}
				if got := inc.WhatIfMakespan(i, w); got != fresh.Makespan {
					t.Fatalf("%s: WhatIfMakespan(%d, %v) = %v, want %v", tc.name, i, w, got, fresh.Makespan)
				}
				requireTimingsEqual(t, inc, before, tc.name+": WhatIfMakespan side effect")
			}
		}
	}
}

// TestUpdateNodeWithEdgeWeights checks UpdateNode on a Timing built with
// non-zero transfer times, where it re-runs the full passes: the state
// and the makespan-moved result must match a fresh timing.
func TestUpdateNodeWithEdgeWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ew := func(u, v int) float64 { return float64((u+v)%3) * 0.5 }
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := randomProbDAG(rng, n, 0.3)
		weights := randomWeights(rng, n)
		inc, err := NewTiming(g, weights, ew)
		if err != nil {
			t.Fatal(err)
		}
		for mut := 0; mut < 20; mut++ {
			i := rng.Intn(n)
			w := rng.Float64() * 10
			before := inc.Makespan
			moved := inc.UpdateNode(i, w)
			fresh, err := NewTiming(g, append([]float64(nil), weights...), ew)
			if err != nil {
				t.Fatal(err)
			}
			requireTimingsEqual(t, inc, fresh, "UpdateNode with edge weights")
			if moved != (fresh.Makespan != before) {
				t.Fatalf("UpdateNode(%d, %v) reported moved=%v, makespan %v -> %v",
					i, w, moved, before, fresh.Makespan)
			}
		}
	}
}

// TestTopoOrderCacheInvalidation ensures mutations drop the cached order:
// adding an edge that forces a different Kahn order must be reflected.
func TestTopoOrderCacheInvalidation(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.MustEdge(0, 2)
	o1, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(o1) != 3 || o1[0] != 0 || o1[1] != 1 {
		t.Fatalf("order = %v, want [0 1 2]", o1)
	}
	// New edge 2 -> 1 forces 1 after 2.
	g.MustEdge(2, 1)
	o2, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if o2[0] != 0 || o2[1] != 2 || o2[2] != 1 {
		t.Fatalf("order after mutation = %v, want [0 2 1]", o2)
	}
	// The returned slice must be a copy: clobbering it must not poison
	// the cache.
	o2[0], o2[1], o2[2] = 9, 9, 9
	o3, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if o3[0] != 0 || o3[1] != 2 || o3[2] != 1 {
		t.Fatalf("cache corrupted by caller mutation: %v", o3)
	}
	// A node added after the cache is warm must invalidate it too.
	g.AddNode("late")
	o4, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(o4) != 4 {
		t.Fatalf("order after AddNode = %v, want 4 nodes", o4)
	}
}

// TestGraphMakespanMatchesTiming pins Graph.Makespan, the forward pass
// alone, to the makespan of a fresh Timing, bit for bit, and that
// makespan to the largest finish time. It covers random DAGs with several
// sinks, one graph rebuilt in place at a smaller and then a larger size
// under one reused eft scratch, tie-heavy fork-joins with small integer
// weights, and NewTiming's errors: a cycle, a short weight slice and a
// NaN weight.
func TestGraphMakespanMatchesTiming(t *testing.T) {
	var eft []float64
	check := func(g *Graph, weights []float64, ctx string) {
		t.Helper()
		fresh, err := NewTiming(g, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		maxEFT := 0.0
		for _, f := range fresh.EFT {
			maxEFT = math.Max(maxEFT, f)
		}
		if math.Float64bits(fresh.Makespan) != math.Float64bits(maxEFT) {
			t.Fatalf("%s: Timing makespan %v, largest finish time %v", ctx, fresh.Makespan, maxEFT)
		}
		var got float64
		got, eft, err = g.Makespan(weights, eft)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if math.Float64bits(got) != math.Float64bits(fresh.Makespan) {
			t.Fatalf("%s: Graph.Makespan %v, Timing makespan %v", ctx, got, fresh.Makespan)
		}
	}
	rng := rand.New(rand.NewSource(17))
	multiSink := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		g := randomProbDAG(rng, n, 0.1+0.2*rng.Float64())
		if sinks(g) > 1 {
			multiSink++
		}
		check(g, randomWeights(rng, n), fmt.Sprintf("random n=%d", n))
	}
	if multiSink < 30 {
		t.Fatalf("only %d of 60 random DAGs have several sinks", multiSink)
	}
	var g Graph
	for _, n := range []int{30, 12, 45} {
		fillRandom(rng, &g, n, 0.15)
		check(&g, randomWeights(rng, n), fmt.Sprintf("rebuilt in place n=%d", n))
	}
	for trial := 0; trial < 40; trial++ {
		width := 1 + rng.Intn(12)
		f := New()
		fork := f.AddNode("fork")
		join := f.AddNode("join")
		for b := 0; b < width; b++ {
			prev := fork
			for d := 0; d <= rng.Intn(3); d++ {
				v := f.AddNode(fmt.Sprintf("b%d_%d", b, d))
				f.MustEdge(prev, v)
				prev = v
			}
			f.MustEdge(prev, join)
		}
		weights := make([]float64, f.NumNodes())
		for i := range weights {
			weights[i] = float64(rng.Intn(3))
		}
		check(f, weights, fmt.Sprintf("fork-join width %d", width))
	}
	cyc := New()
	cyc.AddNodes(3)
	cyc.MustEdge(0, 1)
	cyc.MustEdge(1, 2)
	cyc.MustEdge(2, 0)
	for _, c := range []struct {
		name    string
		g       *Graph
		weights []float64
	}{
		{"cycle", cyc, []float64{1, 2, 3}},
		{"short weights", randomProbDAG(rng, 5, 0.3), []float64{1, 2}},
		{"NaN weight", randomProbDAG(rng, 3, 0.5), []float64{1, math.NaN(), 2}},
	} {
		_, want := NewTiming(c.g, c.weights, nil)
		_, _, got := c.g.Makespan(c.weights, eft)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: Graph.Makespan error %v, NewTiming error %v", c.name, got, want)
		}
	}
}

// sinks counts the nodes of g without successors.
func sinks(g *Graph) int {
	n := 0
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(u) == 0 {
			n++
		}
	}
	return n
}
