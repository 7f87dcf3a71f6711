package dag

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond builds w0 -> {w1, w2} -> w3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddNodes(4)
	g.MustEdge(0, 1)
	g.MustEdge(0, 2)
	g.MustEdge(1, 3)
	g.MustEdge(2, 3)
	return g
}

func TestAddNodeAssignsSequentialIndices(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if got := g.AddNode("x"); got != i {
			t.Fatalf("AddNode #%d returned %d", i, got)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddNodesNamesAndOffset(t *testing.T) {
	g := New()
	g.AddNode("custom")
	first := g.AddNodes(3)
	if first != 1 {
		t.Fatalf("AddNodes returned %d, want 1", first)
	}
	want := []string{"custom", "w1", "w2", "w3"}
	for i, w := range want {
		if g.names[i] != w {
			t.Errorf("names[%d] = %q, want %q", i, g.names[i], w)
		}
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	g.AddNodes(2)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := New()
	g.AddNodes(2)
	g.MustEdge(0, 1)
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New()
	g.AddNodes(2)
	for _, e := range [][2]int{{-1, 0}, {0, 2}, {5, 1}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Errorf("edge %v accepted", e)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond(t)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge gave wrong answers on diamond")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(99, 0) {
		t.Fatal("HasEdge accepted out-of-range source")
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := diamond(t)
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 || g.InDegree(0) != 0 {
		t.Fatal("wrong degrees")
	}
	if !reflect.DeepEqual(g.Succ(0), []int{1, 2}) {
		t.Fatalf("Succ(0) = %v", g.Succ(0))
	}
	if !reflect.DeepEqual(g.Pred(3), []int{1, 2}) {
		t.Fatalf("Pred(3) = %v", g.Pred(3))
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	// Reverse-numbered chain: 3 -> 2 -> 1 -> 0.
	g := New()
	g.AddNodes(4)
	g.MustEdge(3, 2)
	g.MustEdge(2, 1)
	g.MustEdge(1, 0)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{3, 2, 1, 0}) {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoOrderCycle(t *testing.T) {
	g := New()
	g.AddNodes(3)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 0)
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if err := g.Validate(); err != ErrCycle {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	if err := New().Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	if c := diamond(t).FindCycle(); c != nil {
		t.Fatalf("cycle %v found in DAG", c)
	}
}

func TestFindCycleReturnsClosedWalk(t *testing.T) {
	g := New()
	g.AddNodes(5)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	g.MustEdge(3, 1) // cycle 1-2-3-1
	g.MustEdge(3, 4)
	c := g.FindCycle()
	if len(c) < 3 || c[0] != c[len(c)-1] {
		t.Fatalf("not a closed walk: %v", c)
	}
	for i := 0; i+1 < len(c); i++ {
		if !g.HasEdge(c[i], c[i+1]) {
			t.Fatalf("cycle %v uses missing edge (%d,%d)", c, c[i], c[i+1])
		}
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 3, true}, {0, 0, true}, {1, 2, false}, {3, 0, false}, {1, 3, true},
	}
	for _, c := range cases {
		if got := g.Reachable(c.u, c.v); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.MustEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("edge added to clone leaked into original")
	}
	if c.NumEdges() != g.NumEdges()+1 {
		t.Fatal("clone edge count wrong")
	}
}

// randomDAG builds a DAG on n nodes where every edge goes from a lower to a
// higher index, with up to m attempted edges.
func randomDAG(rng *rand.Rand, n, m int) *Graph {
	g := New()
	g.AddNodes(n)
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		_ = g.AddEdge(u, v) // duplicates silently skipped
	}
	return g
}

func TestTopoOrderPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		g := randomDAG(rng, 20, 60)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, g.NumNodes())
		for i, u := range order {
			pos[u] = i
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Succ(u) {
				if pos[u] >= pos[v] {
					t.Fatalf("trial %d: edge (%d,%d) violates topo order", trial, u, v)
				}
			}
		}
	}
}

func TestQuickRandomDAGsAreAcyclic(t *testing.T) {
	// Property: forward-edge construction always yields a valid DAG.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(15), rng.Intn(40))
		return g.Validate() == nil && g.FindCycle() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
