package workflow

import (
	"fmt"
	"strings"

	"medcc/internal/cloud"
)

// dotPalette cycles fill colors by VM type index (Graphviz X11 names,
// chosen light so black labels stay readable).
var dotPalette = []string{
	"lightblue", "lightgoldenrod1", "palegreen", "lightsalmon",
	"plum", "khaki", "lightcyan", "mistyrose", "honeydew",
}

// ExportDOT renders the workflow in Graphviz dot syntax with modules
// colored by their scheduled VM type and labeled with workload, chosen
// type, and execution time. Pass a nil schedule for a structure-only
// rendering; edges carry their data sizes when nonzero.
func (w *Workflow) ExportDOT(s Schedule, cat cloud.Catalog, m *Matrices) (string, error) {
	if s != nil {
		if err := w.ValidateSchedule(s, len(cat)); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	b.WriteString("digraph workflow {\n  rankdir=LR;\n  node [shape=box, style=filled, fillcolor=white];\n")
	for i := 0; i < w.NumModules(); i++ {
		mod := w.Module(i)
		label := mod.Name
		attrs := ""
		switch {
		case mod.Fixed:
			label += fmt.Sprintf("\\nfixed %.3g", mod.FixedTime)
			attrs = ", shape=ellipse"
		case s != nil:
			vt := cat[s[i]]
			label += fmt.Sprintf("\\nWL %.4g -> %s", mod.Workload, vt.Name)
			if m != nil {
				label += fmt.Sprintf(" (%.4g)", m.TE[i][s[i]])
			}
			attrs = fmt.Sprintf(", fillcolor=%s", dotPalette[s[i]%len(dotPalette)])
		default:
			label += fmt.Sprintf("\\nWL %.4g", mod.Workload)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"%s];\n", i, label, attrs)
	}
	g := w.Graph()
	for u := 0; u < g.NumNodes(); u++ {
		for k, v := range g.Succ(u) {
			if ds := w.DataSizes(u)[k]; ds > 0 {
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.4g\"];\n", u, v, ds)
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", u, v)
			}
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}
