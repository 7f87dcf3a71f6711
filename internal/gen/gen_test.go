package gen

import (
	"math/rand"
	"testing"

	"medcc/internal/workflow"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Modules: 5, Edges: 6, WorkloadMin: 1, WorkloadMax: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Modules: 0, Edges: 0},
		{Modules: 5, Edges: -1},
		{Modules: 5, Edges: 11}, // max is 10
		{Modules: 5, Edges: 3, WorkloadMin: -1},
		{Modules: 5, Edges: 3, WorkloadMin: 5, WorkloadMax: 2},
		{Modules: 5, Edges: 3, DataSizeMax: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestRandomMeetsRequestedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []ProblemSize{{5, 6, 3}, {10, 17, 4}, {20, 80, 5}, {50, 503, 7}} {
		w, err := Random(rng, Params{
			Modules: size.M, Edges: size.E,
			WorkloadMin: 10, WorkloadMax: 100,
			AddEntryExit: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		if got := len(w.Schedulable()); got != size.M {
			t.Fatalf("%v: %d schedulable modules", size, got)
		}
		// Edge count among computing modules must equal the request;
		// entry/exit wiring adds more on top.
		inner := 0
		g := w.Graph()
		for u := 0; u < g.NumNodes(); u++ {
			if w.Module(u).Fixed {
				continue
			}
			for _, v := range g.Succ(u) {
				if !w.Module(v).Fixed {
					inner++
				}
			}
		}
		if inner != size.E {
			t.Fatalf("%v: %d inner edges, want %d", size, inner, size.E)
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%v: invalid workflow: %v", size, err)
		}
	}
}

func TestRandomWorkloadsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w, err := Random(rng, Params{Modules: 30, Edges: 100, WorkloadMin: 10, WorkloadMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range w.Schedulable() {
		wl := w.Module(i).Workload
		if wl < 10 || wl > 100 {
			t.Fatalf("workload %v outside [10,100]", wl)
		}
	}
}

func TestRandomEntryExitWiring(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w, err := Random(rng, Params{Modules: 12, Edges: 20, WorkloadMin: 1, WorkloadMax: 2, AddEntryExit: true})
	if err != nil {
		t.Fatal(err)
	}
	sources, sinks := entriesExits(w)
	if len(sources) != 1 || !w.Module(sources[0]).Fixed {
		t.Fatalf("sources = %v", sources)
	}
	if len(sinks) != 1 || !w.Module(sinks[0]).Fixed {
		t.Fatalf("sinks = %v", sinks)
	}
}

func TestRandomWithoutEntryExit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w, err := Random(rng, Params{Modules: 8, Edges: 10, WorkloadMin: 1, WorkloadMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumModules() != 8 {
		t.Fatalf("modules = %d", w.NumModules())
	}
	for i := 0; i < 8; i++ {
		if w.Module(i).Fixed {
			t.Fatal("unexpected fixed module")
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	p := Params{Modules: 15, Edges: 40, WorkloadMin: 10, WorkloadMax: 100, DataSizeMax: 5, AddEntryExit: true}
	a, err := Random(rand.New(rand.NewSource(7)), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(rand.New(rand.NewSource(7)), p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumModules() != b.NumModules() || a.NumDependencies() != b.NumDependencies() {
		t.Fatal("same seed produced different shapes")
	}
	for i := 0; i < a.NumModules(); i++ {
		if a.Module(i) != b.Module(i) {
			t.Fatalf("module %d differs across same-seed runs", i)
		}
	}
}

// TestBuilderMatchesOneShotBitIdentical drives one pooled Builder across a
// stream of heterogeneous sizes and checks every rebuilt workflow against a
// one-shot Instance drawn from an identically-seeded rng: same module
// records, same edges, same data sizes, same catalog. This pins the
// Builder to the one-shot random stream — a single extra or reordered draw
// would desynchronize the rngs and fail on the first field compared.
func TestBuilderMatchesOneShotBitIdentical(t *testing.T) {
	var b Builder
	pooled := rand.New(rand.NewSource(99))
	oneShot := rand.New(rand.NewSource(99))
	sizes := []ProblemSize{{5, 6, 3}, {25, 201, 5}, {10, 17, 4}, {50, 503, 7}, {5, 6, 3}, {100, 2344, 9}}
	for trial, size := range sizes {
		pw, pcat, err := b.Instance(pooled, size)
		if err != nil {
			t.Fatalf("trial %d pooled: %v", trial, err)
		}
		ow, ocat, err := Instance(oneShot, size)
		if err != nil {
			t.Fatalf("trial %d one-shot: %v", trial, err)
		}
		if pw.NumModules() != ow.NumModules() || pw.NumDependencies() != ow.NumDependencies() {
			t.Fatalf("trial %d: shape (%d,%d) != (%d,%d)", trial,
				pw.NumModules(), pw.NumDependencies(), ow.NumModules(), ow.NumDependencies())
		}
		for i := 0; i < ow.NumModules(); i++ {
			if pw.Module(i) != ow.Module(i) {
				t.Fatalf("trial %d module %d: pooled %+v != one-shot %+v",
					trial, i, pw.Module(i), ow.Module(i))
			}
		}
		og, pg := ow.Graph(), pw.Graph()
		for u := 0; u < og.NumNodes(); u++ {
			os, ps := og.Succ(u), pg.Succ(u)
			if len(os) != len(ps) {
				t.Fatalf("trial %d node %d: succ count %d != %d", trial, u, len(ps), len(os))
			}
			for k, v := range os {
				if ps[k] != v {
					t.Fatalf("trial %d node %d succ %d: pooled %d != one-shot %d", trial, u, k, ps[k], v)
				}
				if pw.DataSize(u, v) != ow.DataSize(u, v) {
					t.Fatalf("trial %d edge (%d,%d): data size %v != %v",
						trial, u, v, pw.DataSize(u, v), ow.DataSize(u, v))
				}
			}
		}
		if len(pcat) != len(ocat) {
			t.Fatalf("trial %d: catalog sizes differ", trial)
		}
		for j := range ocat {
			if pcat[j] != ocat[j] {
				t.Fatalf("trial %d catalog type %d: %+v != %+v", trial, j, pcat[j], ocat[j])
			}
		}
	}
}

func TestPaperProblemSizes(t *testing.T) {
	sizes := PaperProblemSizes()
	if len(sizes) != 20 {
		t.Fatalf("%d sizes", len(sizes))
	}
	if sizes[0] != (ProblemSize{5, 6, 3}) || sizes[19] != (ProblemSize{100, 2344, 9}) {
		t.Fatalf("endpoints wrong: %v %v", sizes[0], sizes[19])
	}
	if sizes[11].String() != "(60, 842, 7)" {
		t.Fatalf("String = %q", sizes[11].String())
	}
	// All generable.
	rng := rand.New(rand.NewSource(5))
	for _, s := range sizes {
		if _, _, err := Instance(rng, s); err != nil {
			t.Fatalf("size %v: %v", s, err)
		}
	}
}

func TestCatalogLinearPricing(t *testing.T) {
	c := Catalog(5, 3, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c[0].Power != 3 || c[4].Power != 15 || c[4].Rate != 5 {
		t.Fatalf("catalog = %+v", c)
	}
}

func checkValid(t *testing.T, w *workflow.Workflow) {
	t.Helper()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineTopology(t *testing.T) {
	w := Pipeline(rand.New(rand.NewSource(1)), 6, 10, 20)
	checkValid(t, w)
	if w.NumModules() != 6 || w.NumDependencies() != 5 {
		t.Fatal("pipeline shape wrong")
	}
}

func TestForkJoinTopology(t *testing.T) {
	w := ForkJoin(rand.New(rand.NewSource(1)), 8, 10, 20)
	checkValid(t, w)
	if len(w.Schedulable()) != 8 {
		t.Fatal("branch count wrong")
	}
	g := w.Graph()
	if g.OutDegree(0) != 8 || g.InDegree(g.NumNodes()-1) != 8 {
		t.Fatal("fork/join degrees wrong")
	}
}

func TestLayeredTopology(t *testing.T) {
	w := Layered(rand.New(rand.NewSource(1)), 3, 4, 10, 20)
	checkValid(t, w)
	if w.NumModules() != 12 {
		t.Fatalf("modules = %d", w.NumModules())
	}
	if w.NumDependencies() != 2*4*4 {
		t.Fatalf("edges = %d, want 32", w.NumDependencies())
	}
}

func TestCyberShakeLikeTopology(t *testing.T) {
	w := CyberShakeLike(rand.New(rand.NewSource(1)), 10)
	checkValid(t, w)
	// entry + 2 sgt + width*(seis+peak) + gather.
	if w.NumModules() != 1+2+20+1 {
		t.Fatalf("modules = %d", w.NumModules())
	}
	g := w.Graph()
	// Both SGT stages fan out to every seismogram: out-degree = width.
	if g.OutDegree(1) != 10 || g.OutDegree(2) != 10 {
		t.Fatalf("sgt fan-out %d/%d", g.OutDegree(1), g.OutDegree(2))
	}
	// Gather collects every peak module.
	if g.InDegree(3) != 10 {
		t.Fatalf("gather in-degree %d", g.InDegree(3))
	}
}

func TestEpigenomicsLikeTopology(t *testing.T) {
	w := EpigenomicsLike(rand.New(rand.NewSource(1)), 4)
	checkValid(t, w)
	// entry + global + 4 lanes x 4 stages + tail.
	if w.NumModules() != 2+16+1 {
		t.Fatalf("modules = %d", w.NumModules())
	}
	if _, sinks := entriesExits(w); len(sinks) != 1 {
		t.Fatal("must end in the maqIndex tail")
	}
	// Each lane is a depth-4 chain: the longest path from entry to
	// global passes 4 compute stages.
	if w.Graph().InDegree(1) != 4 {
		t.Fatalf("mapMerge in-degree %d, want 4 lanes", w.Graph().InDegree(1))
	}
}

func TestMontageLikeTopology(t *testing.T) {
	w := MontageLike(rand.New(rand.NewSource(1)), 6)
	checkValid(t, w)
	// width proj + (width-1) diff + bgModel + width back + add/shrink/jpeg + entry
	want := 1 + 6 + 5 + 1 + 6 + 3
	if w.NumModules() != want {
		t.Fatalf("modules = %d, want %d", w.NumModules(), want)
	}
	if _, sinks := entriesExits(w); len(sinks) != 1 {
		t.Fatal("montage should end in a single sink")
	}
}

// entriesExits lists w's modules without predecessors and without
// successors, in index order.
func entriesExits(w *workflow.Workflow) (entries, exits []int) {
	g := w.Graph()
	for i := 0; i < g.NumNodes(); i++ {
		if g.InDegree(i) == 0 {
			entries = append(entries, i)
		}
		if g.OutDegree(i) == 0 {
			exits = append(exits, i)
		}
	}
	return entries, exits
}
