package dag

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// edgeSet is the oracle for AddEdge: the accepted edges of a graph with n
// nodes, as a set and in insertion order.
type edgeSet struct {
	n    int
	have map[[2]int]bool
	list [][2]int
}

// insert calls g.AddEdge(u, v) and fails t unless it accepts or rejects
// exactly as a set of edges says, with the matching error text.
func (s *edgeSet) insert(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	want := ""
	switch {
	case u < 0 || u >= s.n || v < 0 || v >= s.n:
		want = fmt.Sprintf("dag: edge (%d,%d) out of range [0,%d)", u, v, s.n)
	case u == v:
		want = fmt.Sprintf("dag: self-loop on node %d", u)
	case s.have[[2]int{u, v}]:
		want = fmt.Sprintf("dag: duplicate edge (%d,%d)", u, v)
	}
	got := ""
	if err := g.AddEdge(u, v); err != nil {
		got = err.Error()
	}
	if got != want {
		t.Fatalf("AddEdge(%d,%d) = %q, want %q", u, v, got, want)
	}
	if want == "" {
		s.have[[2]int{u, v}] = true
		s.list = append(s.list, [2]int{u, v})
	}
}

// check fails t unless g holds exactly the oracle's edges: as many, each
// accepted one, and none in a successor list that was not accepted.
func (s *edgeSet) check(t *testing.T, g *Graph) {
	t.Helper()
	if g.NumNodes() != s.n || g.NumEdges() != len(s.list) {
		t.Fatalf("graph has %d nodes and %d edges, want %d and %d", g.NumNodes(), g.NumEdges(), s.n, len(s.list))
	}
	for _, e := range s.list {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("accepted edge (%d,%d) missing", e[0], e[1])
		}
	}
	for u := 0; u < s.n; u++ {
		for _, v := range g.Succ(u) {
			if !s.have[[2]int{u, v}] {
				t.Fatalf("edge (%d,%d) was never accepted", u, v)
			}
		}
	}
}

// TestAddEdgeMatchesSetOracle runs random edge programs on one pooled
// graph, Reset between trials. The programs stay on one source for a
// while, switch to new ones and return to earlier ones, insert
// duplicates within and across those runs, self-loops and out-of-range
// ends, and add nodes midway. Every accept or reject, and the error
// text, must be what a set of the accepted edges says.
func TestAddEdgeMatchesSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	g := New()
	for trial := 0; trial < 1500; trial++ {
		g.Reset()
		s := edgeSet{n: 1 + rng.Intn(24), have: map[[2]int]bool{}}
		g.AddNodes(s.n)
		src := rng.Intn(s.n)
		for k := 0; k < 6*s.n; k++ {
			switch r := rng.Intn(40); {
			case r < 6:
				src = rng.Intn(s.n) // a new source or a return to an earlier one
			case r == 6:
				g.AddNodes(1)
				s.n++
			}
			u, v := src, rng.Intn(s.n)
			switch rng.Intn(40) {
			case 0:
				u = rng.Intn(s.n+4) - 2
			case 1:
				v = rng.Intn(s.n+4) - 2
			case 2:
				v = u
			}
			s.insert(t, g, u, v)
		}
		s.check(t, g)
	}
}

// TestAddEdgeInterleavedSourcesStaysLinear inserts a star 0 -> k
// interleaved with a chain k -> k+1 over 200,000 nodes: the source
// changes on every insert and node 0 returns with ever more successors.
// The duplicate check must stay O(1) per edge here, so the inserts end
// within a bound a quadratic check (one that re-marks the source's
// successors on every return) misses by orders of magnitude: it makes
// about 2e10 marks.
func TestAddEdgeInterleavedSourcesStaysLinear(t *testing.T) {
	const n = 200_000
	bound := 2 * time.Second
	if raceEnabled {
		bound *= 10
	}
	g := New()
	g.AddNodes(n)
	start := time.Now()
	for k := 1; k+1 < n; k++ {
		g.MustEdge(0, k)
		g.MustEdge(k, k+1)
	}
	if el := time.Since(start); el > bound {
		t.Fatalf("%d interleaved inserts took %v", g.NumEdges(), el)
	}
	if err := g.AddEdge(0, n/2); err == nil {
		t.Fatal("duplicate star edge accepted")
	}
}

// descendantReducedCSR is the descendant-bitset transitive reduction
// that Validate ran as two extra passes before the reduction moved into
// Kahn's loop: edge (p,v) is redundant exactly when p's descendant set
// meets v's predecessors. It returns the reduced CSR in the graph's
// layout. g must be validated.
func descendantReducedCSR(g *Graph) (predOff, predAdj, succOff, succAdj []int32) {
	n := g.NumNodes()
	words := (n + 63) / 64
	desc := make([]uint64, n*words)
	for k := n - 1; k >= 0; k-- {
		u := g.topo[k]
		du := desc[u*words : (u+1)*words]
		for _, s := range g.succ[u] {
			du[s>>6] |= 1 << (uint(s) & 63)
			ds := desc[s*words : (s+1)*words]
			for w := range du {
				du[w] |= ds[w]
			}
		}
	}
	predOff = make([]int32, n+1)
	predAdj = []int32{}
	predMask := make([]uint64, words)
	outdeg := make([]int32, n)
	for v := 0; v < n; v++ {
		predOff[v] = int32(len(predAdj))
		for _, p := range g.pred[v] {
			predMask[p>>6] |= 1 << (uint(p) & 63)
		}
		for _, p := range g.pred[v] {
			dp := desc[p*words : (p+1)*words]
			redundant := false
			for w := range dp {
				if dp[w]&predMask[w] != 0 {
					redundant = true
					break
				}
			}
			if !redundant {
				predAdj = append(predAdj, int32(p))
				outdeg[p]++
			}
		}
		for _, p := range g.pred[v] {
			predMask[p>>6] = 0
		}
	}
	predOff[n] = int32(len(predAdj))
	succOff = make([]int32, n+1)
	for u := 0; u < n; u++ {
		succOff[u+1] = succOff[u] + outdeg[u]
	}
	succAdj = make([]int32, succOff[n])
	fill := append([]int32(nil), succOff[:n]...)
	for v := 0; v < n; v++ {
		for _, p := range predAdj[predOff[v]:predOff[v+1]] {
			succAdj[fill[p]] = int32(v)
			fill[p]++
		}
	}
	return predOff, predAdj, succOff, succAdj
}

// checkReducedCSR fails t unless the validated graph's reduced CSR equals
// the descendant-bitset reference, array for array.
func checkReducedCSR(t *testing.T, g *Graph) {
	t.Helper()
	predOff, predAdj, succOff, succAdj := descendantReducedCSR(g)
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"redPredOff", g.redPredOff, predOff}, {"redPredAdj", g.redPredAdj, predAdj},
		{"redSuccOff", g.redSuccOff, succOff}, {"redSuccAdj", g.redSuccAdj, succAdj},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s %v, descendant reference %v", c.name, c.got, c.want)
		}
	}
}

// TestReducedCSRMatchesDescendantReference holds the reduction done in
// Kahn's loop to the descendant-bitset reference on random DAGs of up to
// 200 nodes (so the bitsets span one to four words), with node indices
// and insertion order shuffled against the topology, rebuilt in place
// on one pooled graph. The timing tests cannot stand in for this: a
// redundant edge the reduction wrongly keeps leaves every EST, EFT and
// Tail unchanged.
func TestReducedCSRMatchesDescendantReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	g := New()
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(200)
		fillRandom(rng, g, n, 0.5*rng.Float64()*rng.Float64())
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		checkReducedCSR(t, g)
	}
}

// FuzzGraphBuild inserts a fuzz-chosen edge program into a graph of at
// most 130 nodes and holds AddEdge to the set oracle: accept or reject,
// and the error text, for duplicates, self-loops and out-of-range ends.
// Byte 0 picks the node count and whether edges are turned to run from
// the lower index (then the graph is acyclic); every later pair of bytes
// is one insert. After the program, Validate must agree with FindCycle,
// and on success the reduced CSR must equal the descendant-bitset
// reference.
func FuzzGraphBuild(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 0, 2, 0, 1, 2, 2, 9, 0})
	f.Add([]byte{140, 3, 1, 3, 2, 1, 0, 2, 0, 3, 0, 1, 2, 3, 1})
	f.Add([]byte{200, 1, 2, 3, 4, 1, 3, 2, 4, 1, 4, 5, 6, 1, 6, 3, 6, 1, 3})
	f.Add([]byte{129, 0, 70, 0, 65, 65, 70, 0, 129, 129, 130, 64, 0, 70, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := edgeSet{n: 1 + int(data[0])%130, have: map[[2]int]bool{}}
		forward := data[0] >= 130
		g := New()
		g.AddNodes(s.n)
		for k := 1; k+1 < len(data); k += 2 {
			// Ends run over -1..n, one past each side of the range.
			u, v := int(data[k])%(s.n+2)-1, int(data[k+1])%(s.n+2)-1
			if forward && u > v && v >= 0 && u < s.n {
				u, v = v, u
			}
			s.insert(t, g, u, v)
		}
		s.check(t, g)
		err := g.Validate()
		if cyclic := g.FindCycle() != nil; cyclic != errors.Is(err, ErrCycle) || (!cyclic && err != nil) {
			t.Fatalf("Validate = %v, FindCycle found a cycle: %v", err, cyclic)
		}
		if err == nil {
			checkReducedCSR(t, g)
		}
	})
}
