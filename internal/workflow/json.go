package workflow

import (
	"encoding/json"
	"fmt"
)

// wfJSON is the stable serialized form: modules in index order and a list
// of dependency edges with data sizes.
type wfJSON struct {
	Modules []Module `json:"modules"`
	Edges   []wfEdge `json:"edges"`
}

type wfEdge struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	DataSize float64 `json:"data_size"`
}

// MarshalJSON encodes the workflow with edges in (source, insertion) order.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	j := wfJSON{Modules: w.mods, Edges: []wfEdge{}}
	if j.Modules == nil {
		j.Modules = []Module{}
	}
	for u := 0; u < w.g.NumNodes(); u++ {
		for k, v := range w.g.Succ(u) {
			j.Edges = append(j.Edges, wfEdge{From: u, To: v, DataSize: w.DataSizes(u)[k]})
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the MarshalJSON format and validates the result.
func (w *Workflow) UnmarshalJSON(data []byte) error {
	var j wfJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("workflow: decode: %w", err)
	}
	nw := New()
	for _, m := range j.Modules {
		nw.AddModule(m)
	}
	for _, e := range j.Edges {
		if err := nw.AddDependency(e.From, e.To, e.DataSize); err != nil {
			return err
		}
	}
	if err := nw.Validate(); err != nil {
		return err
	}
	*w = *nw
	return nil
}
