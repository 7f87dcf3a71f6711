package dag_test

import (
	"fmt"
	"math/rand"
	"testing"

	"medcc/internal/dag"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// nodeUpdate is one UpdateNode call of an update program.
type nodeUpdate struct {
	node int
	w    float64
}

// criticalProgram is the update program the sweep-policy pin and the root
// BenchmarkUpdateNodeCritical replay on w, over weights that are the
// module workloads (fixed times for fixed modules). It makes up to steps
// Critical-Greedy steps at an unlimited budget: each moves the critical
// non-fixed module whose time would fall the most to its fastest time, a
// seeded 15-25% of its workload (a 9-type diminishing catalog's fastest
// type runs in 19%). It stops early when every critical module is at its
// fastest. The undo of those steps in reverse order follows, as
// Optimal's search backtracks, so replaying the program from weights
// returns to weights.
func criticalProgram(tb testing.TB, w *workflow.Workflow, steps int) (weights []float64, prog []nodeUpdate) {
	tb.Helper()
	n := w.NumModules()
	rng := rand.New(rand.NewSource(2))
	weights = make([]float64, n)
	fastest := make([]float64, n)
	for i := range weights {
		if mod := w.Module(i); mod.Fixed {
			weights[i] = mod.FixedTime
			fastest[i] = mod.FixedTime
		} else {
			weights[i] = mod.Workload
			fastest[i] = mod.Workload * (0.15 + float64(0.1*rng.Float64()))
		}
	}
	cur := append([]float64(nil), weights...)
	t, err := dag.NewTiming(w.Graph(), cur, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for len(prog) < steps {
		best := -1
		for i := 0; i < n; i++ {
			if cur[i] > fastest[i] && t.IsCritical(i) &&
				(best < 0 || cur[i]-fastest[i] > cur[best]-fastest[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		prog = append(prog, nodeUpdate{best, fastest[best]})
		t.UpdateNode(best, fastest[best])
	}
	for k := len(prog) - 1; k >= 0; k-- {
		prog = append(prog, nodeUpdate{prog[k].node, weights[prog[k].node]})
	}
	return weights, prog
}

// TestUpdateNodeSweepPolicy pins when UpdateNode's passes finish densely.
// Both wrong policies, always and never, give exact timings, so only
// this pin sees them. Every state of every program must equal a fresh
// NewTiming bit for bit.
//
// On the paper's random DAGs (sizes 11-20 and the dense m = 500
// instance) a step moves most of the graph: pooled over those shapes, at
// least 80% of the passes, forward and backward, must finish densely
// (Critical-Greedy's own runs at 10 budget levels finish 51-100% of the
// forward and 88-100% of the backward passes densely per size). On the
// tied fork-join and a serve-library random DAG a step moves a few
// nodes: at most 5% of each shape's passes may finish densely, and they
// may recompute at most 10% of the nodes per update on average.
func TestUpdateNodeSweepPolicy(t *testing.T) {
	type shape struct {
		name   string
		w      *workflow.Workflow
		spread bool // most steps move most of the graph
	}
	var shapes []shape
	sizes := append(gen.PaperProblemSizes()[10:], gen.ProblemSize{M: 500, E: 58600, N: 9})
	for _, size := range sizes {
		w, _, err := gen.Instance(rand.New(rand.NewSource(1)), size)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{"instance" + size.String(), w, true})
	}
	lib, err := gen.Random(rand.New(rand.NewSource(1)), gen.Params{
		Modules: 500, Edges: 2000, WorkloadMin: 100, WorkloadMax: 1000,
		DataSizeMax: 10, AddEntryExit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes,
		shape{"library500", lib, false},
		shape{"tied1000", gen.ForkJoin(rand.New(rand.NewSource(1)), 1000, 500, 500), false})

	var spreadPasses, spreadDense int
	for _, sh := range shapes {
		g := sh.w.Graph()
		weights, prog := criticalProgram(t, sh.w, 64)
		inc, err := dag.NewTiming(g, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, u := range prog {
			before := inc.Makespan
			moved := inc.UpdateNode(u.node, u.w)
			fresh, err := dag.NewTiming(g, append([]float64(nil), weights...), nil)
			if err != nil {
				t.Fatal(err)
			}
			if moved != (fresh.Makespan != before) {
				t.Fatalf("%s step %d: moved=%v, makespan %v -> %v", sh.name, k, moved, before, fresh.Makespan)
			}
			dag.RequireTimingsEqual(t, inc, fresh, fmt.Sprintf("%s step %d", sh.name, k))
		}
		fwd, fwdDense, bwd, bwdDense, relaxed := inc.SweepCounts()
		if fwd != len(prog) || bwd != len(prog) {
			t.Fatalf("%s: %d forward and %d backward passes for %d updates", sh.name, fwd, bwd, len(prog))
		}
		n := g.NumNodes()
		perUpdate := float64(relaxed) / float64(len(prog)*n)
		t.Logf("%s: n=%d, %d updates, dense finishes %d forward, %d backward, %.3f of n recomputed per update",
			sh.name, n, len(prog), fwdDense, bwdDense, perUpdate)
		if sh.spread {
			spreadPasses += fwd + bwd
			spreadDense += fwdDense + bwdDense
			continue
		}
		if share := float64(fwdDense+bwdDense) / float64(fwd+bwd); share > 0.05 {
			t.Errorf("%s: %.1f%% of the passes finished densely, want at most 5%%", sh.name, 100*share)
		}
		if perUpdate > 0.1 {
			t.Errorf("%s: %.3f of the nodes recomputed per update, want at most 0.1", sh.name, perUpdate)
		}
	}
	if share := float64(spreadDense) / float64(spreadPasses); share < 0.8 {
		t.Errorf("paper shapes: %.1f%% of the passes finished densely, want at least 80%%", 100*share)
	} else {
		t.Logf("paper shapes: %.1f%% of the passes finished densely", 100*share)
	}
}
