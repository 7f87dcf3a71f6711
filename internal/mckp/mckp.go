// Package mckp implements the Multiple-Choice Knapsack Problem used in the
// paper's complexity analysis (§IV): given m classes of items, choose
// exactly one item per class maximizing total profit subject to a weight
// capacity. MED-CC restricted to pipeline workflows is exactly MCKP
// (Theorem 1), so the solvers here double as an independent optimal oracle
// for pipeline scheduling, cross-checking the branch-and-bound scheduler.
package mckp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Item is one choice within a class.
type Item struct {
	Profit float64
	Weight float64
}

// Problem is an MCKP instance: pick exactly one item from every class so
// that total weight <= Capacity and total profit is maximized.
type Problem struct {
	Classes  [][]Item
	Capacity float64
}

// ErrInfeasible is returned when even the minimum-weight choice per class
// exceeds the capacity.
var ErrInfeasible = errors.New("mckp: no feasible selection")

// Validate checks instance sanity: at least one class, non-empty classes,
// finite non-negative weights.
func (p *Problem) Validate() error {
	if len(p.Classes) == 0 {
		return errors.New("mckp: no classes")
	}
	for i, cls := range p.Classes {
		if len(cls) == 0 {
			return fmt.Errorf("mckp: class %d is empty", i)
		}
		for j, it := range cls {
			if it.Weight < 0 || math.IsNaN(it.Weight) || math.IsInf(it.Weight, 0) {
				return fmt.Errorf("mckp: class %d item %d has invalid weight %v", i, j, it.Weight)
			}
			if math.IsNaN(it.Profit) || math.IsInf(it.Profit, 0) {
				return fmt.Errorf("mckp: class %d item %d has invalid profit %v", i, j, it.Profit)
			}
		}
	}
	if p.Capacity < 0 || math.IsNaN(p.Capacity) {
		return fmt.Errorf("mckp: invalid capacity %v", p.Capacity)
	}
	return nil
}

// minWeightSelection returns the per-class minimum weights and their sum.
func (p *Problem) minWeightSelection() ([]float64, float64) {
	mins := make([]float64, len(p.Classes))
	total := 0.0
	for i, cls := range p.Classes {
		m := math.Inf(1)
		for _, it := range cls {
			if it.Weight < m {
				m = it.Weight
			}
		}
		mins[i] = m
		total += m
	}
	return mins, total
}

// SolveBB solves the instance exactly by depth-first branch and bound.
// It returns the chosen item index per class and the optimal profit.
// Exponential in the worst case; intended for the instance sizes of the
// paper's optimality studies (m*n up to a few hundred).
func SolveBB(p *Problem) ([]int, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	mins, minTotal := p.minWeightSelection()
	if minTotal > p.Capacity+eps {
		return nil, 0, ErrInfeasible
	}
	m := len(p.Classes)
	// Suffix sums for bounds: cheapest completion weight and richest
	// completion profit.
	sufMinW := make([]float64, m+1)
	sufMaxP := make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		maxP := math.Inf(-1)
		for _, it := range p.Classes[i] {
			if it.Profit > maxP {
				maxP = it.Profit
			}
		}
		sufMinW[i] = sufMinW[i+1] + mins[i]
		sufMaxP[i] = sufMaxP[i+1] + maxP
	}

	best := math.Inf(-1)
	bestChoice := make([]int, m)
	cur := make([]int, m)
	var dfs func(i int, weight, profit float64)
	dfs = func(i int, weight, profit float64) {
		if weight+sufMinW[i] > p.Capacity+eps {
			return
		}
		if profit+sufMaxP[i] <= best+eps {
			return
		}
		if i == m {
			if profit > best {
				best = profit
				copy(bestChoice, cur)
			}
			return
		}
		// Visit items in descending profit so good incumbents appear
		// early and the profit bound bites sooner.
		order := byProfitDesc(p.Classes[i])
		for _, j := range order {
			cur[i] = j
			dfs(i+1, weight+p.Classes[i][j].Weight, profit+p.Classes[i][j].Profit)
		}
	}
	dfs(0, 0, 0)
	if math.IsInf(best, -1) {
		return nil, 0, ErrInfeasible
	}
	return bestChoice, best, nil
}

const eps = 1e-9

func byProfitDesc(cls []Item) []int {
	idx := make([]int, len(cls))
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return cls[idx[a]].Profit > cls[idx[b]].Profit
	})
	return idx
}

// SolveDP solves the instance exactly by dynamic programming over an
// integer weight grid. Weights are multiplied by scale and rounded to the
// nearest integer; the caller chooses scale so that scaled weights are
// (near-)integral — e.g. scale=1 when costs are whole dollars. Complexity
// O(m * n * scaledCapacity).
//
// medcc:testoracle — the exact DP that tests check SolveBB, the reduction's solver, against.
func SolveDP(p *Problem, scale float64) ([]int, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, 0, fmt.Errorf("mckp: invalid scale %v", scale)
	}
	capInt := int(math.Floor(float64(p.Capacity*scale) + eps))
	m := len(p.Classes)
	type cell struct {
		profit float64
		ok     bool
		choice int
	}
	// dp[i][c]: best profit choosing from classes [0,i) with weight
	// exactly <= c; rolling rows with parent pointers per row.
	prev := make([]cell, capInt+1)
	for c := range prev {
		prev[c] = cell{ok: true}
	}
	parents := make([][]cell, m)
	for i := 0; i < m; i++ {
		next := make([]cell, capInt+1)
		for c := 0; c <= capInt; c++ {
			bestP, bestJ, ok := math.Inf(-1), -1, false
			for j, it := range p.Classes[i] {
				wInt := int(math.Round(it.Weight * scale))
				if wInt > c {
					continue
				}
				pc := prev[c-wInt]
				if !pc.ok {
					continue
				}
				if cand := pc.profit + it.Profit; !ok || cand > bestP {
					bestP, bestJ, ok = cand, j, true
				}
			}
			next[c] = cell{profit: bestP, ok: ok, choice: bestJ}
		}
		parents[i] = next
		prev = next
	}
	// Find the best reachable capacity cell.
	bestC := -1
	for c := 0; c <= capInt; c++ {
		if prev[c].ok && (bestC == -1 || prev[c].profit > prev[bestC].profit) {
			bestC = c
		}
	}
	if bestC == -1 {
		return nil, 0, ErrInfeasible
	}
	// Reconstruct.
	choice := make([]int, m)
	c := bestC
	for i := m - 1; i >= 0; i-- {
		j := parents[i][c].choice
		choice[i] = j
		c -= int(math.Round(p.Classes[i][j].Weight * scale))
	}
	return choice, prev[bestC].profit, nil
}

// SolveGreedy returns a feasible (not necessarily optimal) selection: start
// from the per-class minimum weight items, then repeatedly apply the
// upgrade with the best profit-increase / weight-increase ratio that fits.
// This is the LP-relaxation-flavored heuristic; it mirrors the GAIN family
// on the scheduling side.
//
// medcc:testoracle — the MCKP counterpart of GAIN, property-tested against SolveBB's optimum.
func SolveGreedy(p *Problem) ([]int, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	choice := make([]int, len(p.Classes))
	weight, profit := 0.0, 0.0
	for i, cls := range p.Classes {
		bj := 0
		for j, it := range cls {
			if it.Weight < cls[bj].Weight ||
				// medcc:lint-ignore floateq — tie-break on identical item weights copied from the input classes.
				(it.Weight == cls[bj].Weight && it.Profit > cls[bj].Profit) {
				bj = j
			}
		}
		choice[i] = bj
		weight += cls[bj].Weight
		profit += cls[bj].Profit
	}
	if weight > p.Capacity+eps {
		return nil, 0, ErrInfeasible
	}
	for {
		bi, bj := -1, -1
		var bestRatio, bestDP float64
		for i, cls := range p.Classes {
			curIt := cls[choice[i]]
			for j, it := range cls {
				dp := it.Profit - curIt.Profit
				dw := it.Weight - curIt.Weight
				if dp <= eps {
					continue
				}
				if weight+dw > p.Capacity+eps {
					continue
				}
				r := math.Inf(1)
				if dw > eps {
					r = dp / dw
				}
				// medcc:lint-ignore floateq — equal-rank detection before the profit tie-break; ratios may be +Inf where epsilon is meaningless.
				if bi == -1 || r > bestRatio || (r == bestRatio && dp > bestDP) {
					bi, bj, bestRatio, bestDP = i, j, r, dp
				}
			}
		}
		if bi == -1 {
			break
		}
		weight += p.Classes[bi][bj].Weight - p.Classes[bi][choice[bi]].Weight
		profit += bestDP
		choice[bi] = bj
	}
	return choice, profit, nil
}
