package workflow

import (
	"math"
	"math/rand"
	"testing"
)

// checkDataSizes compares DataSize and DataSizes against a reference map
// over every ordered pair (absent and reversed edges read zero) and checks
// that DataSizes(u) runs parallel to Graph().Succ(u).
func checkDataSizes(t *testing.T, w *Workflow, ref map[[2]int]float64, ctx string) {
	t.Helper()
	n := w.NumModules()
	for u := 0; u < n; u++ {
		succ, ds := w.Graph().Succ(u), w.DataSizes(u)
		if len(ds) != len(succ) {
			t.Fatalf("%s: DataSizes(%d) has %d entries for %d successors", ctx, u, len(ds), len(succ))
		}
		for k, v := range succ {
			if math.Float64bits(ds[k]) != math.Float64bits(ref[[2]int{u, v}]) {
				t.Fatalf("%s: DataSizes(%d)[%d] = %v, want %v", ctx, u, k, ds[k], ref[[2]int{u, v}])
			}
		}
		for v := -1; v <= n; v++ {
			if got, want := w.DataSize(u, v), ref[[2]int{u, v}]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: DataSize(%d,%d) = %v, want %v", ctx, u, v, got, want)
			}
		}
	}
	if w.DataSize(-1, 0) != 0 || w.DataSize(n, 0) != 0 {
		t.Fatalf("%s: out-of-range source has nonzero data size", ctx)
	}
}

// fillRandom rebuilds w in place with n modules and random forward edges
// (through a node permutation) inserted in shuffled order, re-offering
// some edges as rejected duplicates. It returns the reference map.
func fillRandom(t *testing.T, rng *rand.Rand, w *Workflow, n int, edgeProb float64) map[[2]int]float64 {
	t.Helper()
	w.Reset()
	for i := 0; i < n; i++ {
		w.AddModule(Module{Name: "m", Workload: 1})
	}
	perm := rng.Perm(n)
	var edges [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < edgeProb {
				edges = append(edges, [2]int{perm[a], perm[b]})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	ref := map[[2]int]float64{}
	for _, e := range edges {
		ds := math.Floor(rng.Float64()*8) / 2 // zeros and exact ties included
		if err := w.AddDependency(e[0], e[1], ds); err != nil {
			t.Fatal(err)
		}
		ref[e] = ds
		if rng.Intn(4) == 0 {
			if err := w.AddDependency(e[0], e[1], ds+1); err == nil {
				t.Fatalf("duplicate edge %v accepted", e)
			}
		}
	}
	return ref
}

// TestDataSizesMatchReferenceMap is the property test for the per-source
// data-size slices: across Reset→rebuild cycles that grow and shrink the
// module and edge counts, DataSize and DataSizes agree with a map of the
// inserted edges, and clones are independent of their source.
func TestDataSizesMatchReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := New()
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(40)
		ref := fillRandom(t, rng, w, n, rng.Float64()*0.5)
		checkDataSizes(t, w, ref, "rebuilt")
		if trial%4 == 0 {
			// A module added after the view was built has no edges yet.
			w.AddModule(Module{Name: "late", Workload: 1})
			checkDataSizes(t, w, ref, "late module")
		}
		if w.NumDependencies() != len(ref) {
			t.Fatalf("trial %d: %d dependencies, want %d", trial, w.NumDependencies(), len(ref))
		}

		c := w.Clone()
		checkDataSizes(t, c, ref, "clone")
		if n >= 2 {
			// Grow the clone's edge lists: the source must not see it.
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b && !c.Graph().HasEdge(a, b) && !c.Graph().HasEdge(b, a) {
				if err := c.AddDependency(a, b, 99); err != nil {
					t.Fatal(err)
				}
				checkDataSizes(t, w, ref, "source after clone edit")
			}
		}
		// Rebuilding the source must not disturb the clone either.
		cref := map[[2]int]float64{}
		for u := 0; u < c.NumModules(); u++ {
			for k, v := range c.Graph().Succ(u) {
				cref[[2]int{u, v}] = c.DataSizes(u)[k]
			}
		}
		fillRandom(t, rng, w, 1+rng.Intn(40), 0.3)
		checkDataSizes(t, c, cref, "clone after source rebuild")
	}
}
