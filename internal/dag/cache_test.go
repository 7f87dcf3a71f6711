package dag

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedReadyOrder is the pre-heap Kahn's algorithm, kept as a reference:
// the ready list is re-sorted before every pop and its lowest index taken.
func sortedReadyOrder(g *Graph) ([]int, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	var ready []int
	for i := 0; i < n; i++ {
		indeg[i] = g.InDegree(i)
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	var out []int
	for len(ready) > 0 {
		sort.Ints(ready)
		u := ready[0]
		ready = ready[1:]
		out = append(out, u)
		for _, v := range g.Succ(u) {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(out) != n {
		return nil, ErrCycle
	}
	return out, nil
}

// fillRandom rebuilds g in place as a random DAG on n nodes: edges run
// forward through a random permutation and are inserted in shuffled order,
// so neither node indices nor insertion order follow the topology. It
// returns the edges in insertion order.
func fillRandom(rng *rand.Rand, g *Graph, n int, edgeProb float64) [][2]int {
	g.Reset()
	g.AddNodes(n)
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
	for _, e := range edges {
		g.MustEdge(e[0], e[1])
	}
	return edges
}

// freshGraph builds a newly allocated graph on n nodes with the given
// edges, inserted in order.
func freshGraph(n int, edges [][2]int) *Graph {
	f := New()
	f.AddNodes(n)
	for _, e := range edges {
		f.MustEdge(e[0], e[1])
	}
	return f
}

func TestHeapKahnMatchesSortedReadyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := New()
	for trial := 0; trial < 200; trial++ {
		fillRandom(rng, g, 1+rng.Intn(60), rng.Float64()*0.4)
		got, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sortedReadyOrder(g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: heap order %v != sorted-ready order %v", trial, got, want)
		}
	}
}

// TestInPlaceRebuildMatchesFresh is the differential behind the retained
// cache: a graph Reset and rebuilt through many shapes (growing and
// shrinking) must derive exactly the topo order, reduced CSR and timings
// that a freshly allocated graph of the same structure derives.
func TestInPlaceRebuildMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New()
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(90) // crosses the 64-node bitset word boundary both ways
		edges := fillRandom(rng, g, n, rng.Float64()*0.3)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		f := freshGraph(n, edges)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []int32
		}{
			{"redPredOff", g.redPredOff, f.redPredOff}, {"redPredAdj", g.redPredAdj, f.redPredAdj},
			{"redSuccOff", g.redSuccOff, f.redSuccOff}, {"redSuccAdj", g.redSuccAdj, f.redSuccAdj},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("trial %d: %s %v != fresh %v", trial, c.name, c.got, c.want)
			}
		}
		if !slices.Equal(g.topo, f.topo) || !slices.Equal(g.pos, f.pos) {
			t.Fatalf("trial %d: topo/pos differ from fresh graph", trial)
		}
		w := randomWeights(rng, n)
		for _, ew := range []EdgeWeight{nil, func(u, v int) float64 { return float64((u*7+v)%5) * 0.25 }} {
			tg, err := NewTiming(g, w, ew)
			if err != nil {
				t.Fatal(err)
			}
			tf, err := NewTiming(f, w, ew)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(tg.EST[i]) != math.Float64bits(tf.EST[i]) ||
					math.Float64bits(tg.EFT[i]) != math.Float64bits(tf.EFT[i]) ||
					math.Float64bits(tg.Tail[i]) != math.Float64bits(tf.Tail[i]) {
					t.Fatalf("trial %d node %d: rebuilt EST/EFT/Tail %v/%v/%v != fresh %v/%v/%v",
						trial, i, tg.EST[i], tg.EFT[i], tg.Tail[i], tf.EST[i], tf.EFT[i], tf.Tail[i])
				}
			}
			if math.Float64bits(tg.Makespan) != math.Float64bits(tf.Makespan) {
				t.Fatalf("trial %d: makespan %v != %v", trial, tg.Makespan, tf.Makespan)
			}
		}
	}
}

func TestCycleDetectedAfterReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New()
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(40)
		fillRandom(rng, g, n, 0.2)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: acyclic graph rejected: %v", trial, err)
		}
		// Close a cycle through a chain appended to the warmed graph.
		a, b := rng.Intn(n), rng.Intn(n)
		for a == b {
			b = rng.Intn(n)
		}
		if !g.HasEdge(a, b) {
			g.MustEdge(a, b)
		}
		if !g.HasEdge(b, a) {
			g.MustEdge(b, a)
		}
		if err := g.Validate(); !errors.Is(err, ErrCycle) {
			t.Fatalf("trial %d: Validate after closing a cycle = %v, want ErrCycle", trial, err)
		}
		if _, err := g.TopoOrder(); !errors.Is(err, ErrCycle) {
			t.Fatalf("trial %d: TopoOrder = %v, want ErrCycle", trial, err)
		}
		if _, err := NewTiming(g, randomWeights(rng, n), nil); !errors.Is(err, ErrCycle) {
			t.Fatalf("trial %d: NewTiming = %v, want ErrCycle", trial, err)
		}
	}
}

// TestCloneSharesNoCache checks that a clone's cache is its own: rebuilding
// the source in place leaves the clone's order and timings intact.
func TestCloneSharesNoCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New()
	fillRandom(rng, g, 40, 0.2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	want, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	w := randomWeights(rng, 40)
	tc, err := NewTiming(c, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := tc.Makespan
	fillRandom(rng, g, 40, 0.3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.TopoOrder(); !slices.Equal(got, want) {
		t.Fatal("rebuilding the source changed the clone's topo order")
	}
	if err := tc.Update(w); err != nil {
		t.Fatal(err)
	}
	if tc.Makespan != mk {
		t.Fatalf("clone timing makespan %v after source rebuild, want %v", tc.Makespan, mk)
	}
}
