package dag

import (
	"encoding/json"
	"testing"
)

// FuzzGraphJSON checks the graph loader never panics and that accepted
// graphs are structurally consistent.
func FuzzGraphJSON(f *testing.F) {
	seeds := []string{
		`{"nodes":["a","b"],"edges":[[0,1]]}`,
		`{"nodes":[],"edges":[]}`,
		`{"nodes":["a"],"edges":[[0,0]]}`,
		`{"nodes":["a","b","c"],"edges":[[0,1],[1,2],[2,0]]}`,
		`{"nodes":["a","b"],"edges":[[0,1],[0,1]]}`,
		`{"nodes":["a"],"edges":[[0,5]]}`,
		`[1,2,3]`,
		`{"nodes":["a","b"],"edges":[[-1,0]]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		// Degree bookkeeping must be consistent.
		inSum, outSum := 0, 0
		for i := 0; i < g.NumNodes(); i++ {
			inSum += g.InDegree(i)
			outSum += g.OutDegree(i)
		}
		if inSum != g.NumEdges() || outSum != g.NumEdges() {
			t.Fatalf("degree sums %d/%d disagree with %d edges", inSum, outSum, g.NumEdges())
		}
		// TopoOrder either works or reports a cycle; FindCycle must
		// agree with it.
		_, topoErr := g.TopoOrder()
		cycle := g.FindCycle()
		if (topoErr == nil) != (cycle == nil) {
			t.Fatalf("TopoOrder err=%v but FindCycle=%v", topoErr, cycle)
		}
	})
}

// FuzzIncrementalTiming drives UpdateNode with fuzz-chosen mutations over a
// fuzz-derived DAG of up to 65 nodes and checks every state against a
// fresh NewTiming, along with the WhatIfMakespan probe of each mutation
// and UpdateNode's makespan-moved result. data[0] sets the node count and
// data[1] the edge density, from none to complete. The mutation stream
// doubles as weights: bytes k and k+1 make one mutation. An odd data[k]
// is a Critical-Greedy step: it lowers critical node number data[k]/2
// (mod their count) to data[k+1]/256 of its weight. An even one sets
// node data[k]/2 mod n to data[k+1]/16. Large, dense graphs and
// critical steps make the passes switch to dense finishes mid-range.
func FuzzIncrementalTiming(f *testing.F) {
	f.Add([]byte{4, 1, 2, 0, 7, 3, 255, 0, 0, 128, 64, 9, 33})
	f.Add([]byte{8, 200, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{63, 5, 9, 200, 1, 77, 3, 128, 5, 250, 12, 40, 7, 99, 31, 180, 2, 60, 11, 130, 200, 17})
	f.Add([]byte{40, 8, 1, 0, 3, 10, 5, 20, 7, 30, 9, 40, 11, 50, 13, 60, 15, 70, 17, 80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%64
		density := int(data[1]) % 9 // edge when edgeByte%8 < density
		edgeByte := func(a, b int) byte {
			k := 1 + (a*31+b*7)%(len(data)-1)
			return data[k]
		}
		g := New()
		g.AddNodes(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if int(edgeByte(a, b)%8) < density {
					g.MustEdge(a, b)
				}
			}
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(edgeByte(i, i)) / 8
		}
		inc, err := NewTiming(g, weights, nil)
		if err != nil {
			t.Fatal(err) // construction cannot cycle: edges go low -> high
		}
		var crit []int
		for k := 2; k+1 < len(data); k += 2 {
			i, w := int(data[k]>>1)%n, float64(data[k+1])/16
			if data[k]&1 == 1 {
				crit = crit[:0]
				for u := 0; u < n; u++ {
					if inc.IsCritical(u) {
						crit = append(crit, u)
					}
				}
				i = crit[int(data[k]>>1)%len(crit)]
				w = weights[i] * float64(data[k+1]) / 256
			}
			before := inc.Makespan
			probe := inc.WhatIfMakespan(i, w)
			moved := inc.UpdateNode(i, w)
			fresh, err := NewTiming(g, append([]float64(nil), weights...), nil)
			if err != nil {
				t.Fatal(err)
			}
			if inc.Makespan != fresh.Makespan {
				t.Fatalf("mutation %d: makespan %v != fresh %v", k, inc.Makespan, fresh.Makespan)
			}
			if probe != fresh.Makespan {
				t.Fatalf("mutation %d: WhatIfMakespan %v != fresh %v", k, probe, fresh.Makespan)
			}
			if moved != (fresh.Makespan != before) {
				t.Fatalf("mutation %d: moved=%v but makespan %v -> %v", k, moved, before, fresh.Makespan)
			}
			for i := 0; i < n; i++ {
				if inc.EST[i] != fresh.EST[i] || inc.EFT[i] != fresh.EFT[i] ||
					inc.Tail[i] != fresh.Tail[i] {
					t.Fatalf("mutation %d node %d: incremental state diverged from fresh", k, i)
				}
			}
		}
	})
}
