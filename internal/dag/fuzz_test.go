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
// fuzz-derived DAG and checks every state against a fresh NewTiming, along
// with the WhatIfMakespan probe of each mutation and UpdateNode's
// makespan-moved result. The mutation stream doubles as weights: byte k
// mutates node data[k] % n to weight data[k+1] / 16.
func FuzzIncrementalTiming(f *testing.F) {
	f.Add([]byte{4, 1, 2, 0, 7, 3, 255, 0, 0, 128, 64, 9, 33})
	f.Add([]byte{8, 200, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%16
		edgeByte := func(a, b int) byte {
			k := 1 + (a*31+b*7)%(len(data)-1)
			return data[k]
		}
		g := New()
		g.AddNodes(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if edgeByte(a, b)%3 == 0 {
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
		for k := 0; k+1 < len(data); k += 2 {
			i, w := int(data[k])%n, float64(data[k+1])/16
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
