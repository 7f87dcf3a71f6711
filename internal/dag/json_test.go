package dag

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g := New()
	g.AddNode("entry")
	g.AddNode("mid")
	g.AddNode("exit")
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(0, 2)

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 3 || back.NumEdges() != 3 {
		t.Fatalf("round trip lost structure: %d nodes %d edges", back.NumNodes(), back.NumEdges())
	}
	for i := 0; i < 3; i++ {
		if back.names[i] != g.names[i] {
			t.Fatalf("name %d changed: %q", i, back.names[i])
		}
	}
	for u := 0; u < 3; u++ {
		if !reflect.DeepEqual(back.Succ(u), g.Succ(u)) {
			t.Fatalf("succ(%d) changed: %v vs %v", u, back.Succ(u), g.Succ(u))
		}
	}
}

func TestJSONEmptyGraph(t *testing.T) {
	data, err := json.Marshal(New())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"nodes":[],"edges":[]}` {
		t.Fatalf("empty graph JSON = %s", data)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 0 {
		t.Fatal("empty graph round trip gained nodes")
	}
}

func TestJSONRejectsBadEdges(t *testing.T) {
	cases := []string{
		`{"nodes":["a"],"edges":[[0,1]]}`,           // out of range
		`{"nodes":["a"],"edges":[[0,0]]}`,           // self loop
		`{"nodes":["a","b"],"edges":[[0,1],[0,1]]}`, // duplicate
		`{"nodes":"x"}`,                             // wrong type
	}
	for _, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("bad JSON accepted: %s", c)
		}
	}
}
