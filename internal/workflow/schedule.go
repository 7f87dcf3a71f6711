package workflow

import (
	"fmt"

	"medcc/internal/dag"
)

// Schedule maps each module index to a VM type index in the catalog.
// Fixed modules conventionally carry -1. A Schedule is specific to the
// (workflow, catalog) pair its Matrices were built from.
type Schedule []int

// Clone returns a copy of the schedule.
func (s Schedule) Clone() Schedule { return append(Schedule(nil), s...) }

// Equal reports element-wise equality.
func (s Schedule) Equal(o Schedule) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Validate checks that s assigns every schedulable module a valid type
// index and every fixed module -1.
func (w *Workflow) ValidateSchedule(s Schedule, numTypes int) error {
	if len(s) != len(w.mods) {
		return fmt.Errorf("workflow: schedule length %d for %d modules", len(s), len(w.mods))
	}
	for i, j := range s {
		if w.mods[i].Fixed {
			if j != -1 {
				return fmt.Errorf("workflow: fixed module %d mapped to type %d", i, j)
			}
			continue
		}
		if j < 0 || j >= numTypes {
			return fmt.Errorf("workflow: module %d mapped to invalid type %d", i, j)
		}
	}
	return nil
}

// Times returns the per-module execution times under schedule s.
func (m *Matrices) Times(s Schedule) []float64 {
	return m.TimesInto(s, nil)
}

// TimesInto fills dst with the per-module execution times under schedule s
// and returns it, reusing dst's capacity and allocating only when it is
// too small. Reusing one buffer across greedy iterations, and across
// instances of different sizes, keeps the scheduler hot loop
// allocation-free.
func (m *Matrices) TimesInto(s Schedule, dst []float64) []float64 {
	if cap(dst) < len(m.TE) {
		// medcc:lint-ignore allocfree — first-use growth; steady state reuses dst.
		dst = make([]float64, len(m.TE))
	}
	dst = dst[:len(m.TE)]
	for i, j := range s {
		if j < 0 {
			dst[i] = m.TE[i][0] // fixed module: identical in every column
			continue
		}
		dst[i] = m.TE[i][j]
	}
	return dst
}

// Cost returns C_total, the summed execution cost of schedule s (Eq. 9).
func (m *Matrices) Cost(s Schedule) float64 {
	total := 0.0
	for i, j := range s {
		if j < 0 {
			continue
		}
		total += m.CE[i][j]
	}
	return total
}

// Evaluation bundles the analytic performance of a schedule.
type Evaluation struct {
	// Makespan is the end-to-end delay (MED objective, Eq. 8).
	Makespan float64
	// Cost is the total financial cost.
	Cost float64
	// Timing is the full forward/backward pass, for slack queries.
	Timing *dag.Timing
}

// Evaluate computes makespan and cost of s on workflow w. A nil edgeW means
// zero transfer times (intra-datacenter).
func (w *Workflow) Evaluate(m *Matrices, s Schedule, edgeW dag.EdgeWeight) (*Evaluation, error) {
	if err := w.ValidateSchedule(s, len(m.Catalog)); err != nil {
		return nil, err
	}
	t, err := dag.NewTiming(w.g, m.Times(s), edgeW)
	if err != nil {
		return nil, err
	}
	return &Evaluation{Makespan: t.Makespan, Cost: m.Cost(s), Timing: t}, nil
}

// LeastCost returns S_least-cost: each schedulable module mapped to its
// min-cost type, ties broken by the minimum execution time among the
// cheapest types (Alg. 1 step 2). Fixed modules get -1.
func (m *Matrices) LeastCost(w *Workflow) Schedule {
	return m.LeastCostInto(w, nil)
}

// LeastCostInto writes the least-cost schedule into dst and returns it,
// reusing dst's capacity and allocating only when it is too small.
func (m *Matrices) LeastCostInto(w *Workflow, dst Schedule) Schedule {
	s := dst
	if cap(s) < len(m.TE) {
		// medcc:lint-ignore allocfree — first-use growth; steady state reuses dst.
		s = make(Schedule, len(m.TE))
	}
	s = s[:len(m.TE)]
	for i := range m.TE {
		if w.mods[i].Fixed {
			s[i] = -1
			continue
		}
		s[i] = m.leastCostType(i)
	}
	return s
}

// leastCostType is module i's min-cost type, ties broken by the minimum
// execution time (then the lowest index).
func (m *Matrices) leastCostType(i int) int {
	best := 0
	for j := 1; j < len(m.Catalog); j++ {
		cj, cb := m.CE[i][j], m.CE[i][best]
		switch {
		case cj < cb:
			best = j
		// medcc:lint-ignore floateq — tie-break on identical table cells; both sides read straight from CE.
		case cj == cb && m.TE[i][j] < m.TE[i][best]:
			best = j
		}
	}
	return best
}

// Fastest returns S_fastest: each schedulable module mapped to its
// min-time type, ties broken by minimum cost.
func (m *Matrices) Fastest(w *Workflow) Schedule {
	return m.FastestInto(w, nil)
}

// FastestInto writes the fastest schedule into dst and returns it,
// reusing dst's capacity and allocating only when it is too small.
func (m *Matrices) FastestInto(w *Workflow, dst Schedule) Schedule {
	s := dst
	if cap(s) < len(m.TE) {
		// medcc:lint-ignore allocfree — first-use growth; steady state reuses dst.
		s = make(Schedule, len(m.TE))
	}
	s = s[:len(m.TE)]
	for i := range m.TE {
		if w.mods[i].Fixed {
			s[i] = -1
			continue
		}
		s[i] = m.fastestType(i)
	}
	return s
}

// fastestType is module i's min-time type, ties broken by the minimum
// cost (then the lowest index).
func (m *Matrices) fastestType(i int) int {
	best := 0
	for j := 1; j < len(m.Catalog); j++ {
		tj, tb := m.TE[i][j], m.TE[i][best]
		switch {
		case tj < tb:
			best = j
		// medcc:lint-ignore floateq — tie-break on identical table cells; both sides read straight from TE.
		case tj == tb && m.CE[i][j] < m.CE[i][best]:
			best = j
		}
	}
	return best
}

// BudgetRange returns [Cmin, Cmax]: the cost of the least-cost schedule
// (below which no feasible schedule exists) and of the fastest schedule
// (above which extra budget is wasted), per §V-B. The sums run in module
// order like Cost over the materialized schedules, so the bounds are
// bit-identical to Cost(LeastCost(w)) and Cost(Fastest(w)) without
// allocating either schedule.
func (m *Matrices) BudgetRange(w *Workflow) (cmin, cmax float64) {
	for i := range m.TE {
		if w.mods[i].Fixed {
			continue
		}
		cmin += m.CE[i][m.leastCostType(i)]
		cmax += m.CE[i][m.fastestType(i)]
	}
	return cmin, cmax
}
