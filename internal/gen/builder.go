package gen

import (
	"fmt"
	"math/rand"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

// Builder is a pooled instance generator: one Builder owns a workflow and
// the generation scratch (permutation buffer, module-id buffer, interned
// module names, per-size catalogs) and rebuilds the same storage on every
// call, so a campaign worker generating thousands of instances reaches a
// steady state with near-zero allocations per instance.
//
// The draw sequence is bit-identical to the package-level Random and
// Instance functions: for any rng state, Builder.Random consumes exactly
// the same random numbers in the same order (its permutation scratch
// replays rand.Perm's algorithm), so pooled and one-shot generation yield
// the same workflows. The returned *Workflow is owned by the Builder and
// is valid only until the next Random/Instance call; callers needing a
// persistent copy must Clone it. Not safe for concurrent use — give each
// worker its own Builder.
//
// medcc:scratch
type Builder struct {
	// medcc:lint-ignore epochguard — the Builder is the producer: it rebuilds w in place and bumps its Version for consumers; it never reads stale derived state.
	w     *workflow.Workflow
	perm  []int
	ids   []int
	names []string
	cats  map[int]cloud.Catalog
}

// name returns the interned display name of computing module i ("w1" for
// i=0), formatting each name only the first time it is needed.
func (b *Builder) name(i int) string {
	for len(b.names) <= i {
		b.names = append(b.names, fmt.Sprintf("w%d", len(b.names)+1))
	}
	return b.names[i]
}

// catalog returns the simulation catalog for n VM types, built once per n
// and shared across instances (catalogs are read-only by convention).
func (b *Builder) catalog(n int) cloud.Catalog {
	if b.cats == nil {
		b.cats = make(map[int]cloud.Catalog)
	}
	c, ok := b.cats[n]
	if !ok {
		c = cloud.DiminishingCatalog(n, 3, 1, SimulationGamma)
		b.cats[n] = c
	}
	return c
}

// permInto fills dst with rng.Perm(n) drawn by the identical algorithm
// (the same Intn call per index), reusing dst's storage so the pooled
// generator stays on the one-shot generator's random stream without
// allocating a fresh permutation per module.
func permInto(rng *rand.Rand, n int, dst []int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	} else {
		dst = dst[:n]
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// Random is the pooled form of the package-level Random: same
// construction, same draw sequence, but rebuilding the Builder's workflow
// in place instead of allocating a new one.
//
// medcc:deterministic — all randomness comes from the caller's seeded rng
func (b *Builder) Random(rng *rand.Rand, p Params) (*workflow.Workflow, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if b.w == nil {
		b.w = workflow.New()
	} else {
		b.w.Reset()
	}
	w := b.w
	entry := -1
	if p.AddEntryExit {
		entry = w.AddModule(workflow.Module{Name: "entry", Fixed: true, FixedTime: 1})
	}
	if cap(b.ids) < p.Modules {
		b.ids = make([]int, p.Modules)
	}
	ids := b.ids[:p.Modules]
	for i := range ids {
		wl := p.WorkloadMin
		if p.WorkloadMax > p.WorkloadMin {
			// Rounding the product keeps the draw unfused on FMA platforms.
			wl += float64(rng.Float64() * (p.WorkloadMax - p.WorkloadMin))
		}
		ids[i] = w.AddModule(workflow.Module{Name: b.name(i), Workload: wl})
	}

	ds := func() float64 {
		if p.DataSizeMax <= 0 {
			return 0
		}
		return rng.Float64() * p.DataSizeMax
	}

	// Random forward fan-out, per the paper: "for each module wi, we
	// randomly choose a number k within the range [1, m-1-i] and then
	// choose k modules with their module IDs in the range [i+1, m-1] as
	// its successors", stopping when the edge budget is spent.
	edges := 0
	for i := 0; i < p.Modules-1 && edges < p.Edges; i++ {
		avail := p.Modules - 1 - i
		k := 1 + rng.Intn(avail)
		if k > p.Edges-edges {
			k = p.Edges - edges
		}
		b.perm = permInto(rng, avail, b.perm)
		for _, off := range b.perm[:k] {
			target := i + 1 + off
			if err := w.AddDependency(ids[i], ids[target], ds()); err != nil {
				return nil, err
			}
			edges++
		}
	}
	// Top up with uniformly random forward edges if fan-out stopped
	// short of the requested count.
	for guard := 0; edges < p.Edges && guard < 100*p.Edges+1000; guard++ {
		u := rng.Intn(p.Modules - 1)
		v := u + 1 + rng.Intn(p.Modules-1-u)
		if w.Graph().HasEdge(ids[u], ids[v]) {
			continue
		}
		if err := w.AddDependency(ids[u], ids[v], ds()); err != nil {
			return nil, err
		}
		edges++
	}

	if p.AddEntryExit {
		exit := w.AddModule(workflow.Module{Name: "exit", Fixed: true, FixedTime: 1})
		for _, id := range ids {
			if w.Graph().InDegree(id) == 0 {
				if err := w.AddDependency(entry, id, 0); err != nil {
					return nil, err
				}
			}
			if w.Graph().OutDegree(id) == 0 {
				if err := w.AddDependency(id, exit, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Instance is the pooled form of the package-level Instance: the same
// workflow parameters and catalog, with the workflow rebuilt in place and
// the catalog cached per type count.
//
// medcc:deterministic — all randomness comes from the caller's seeded rng
func (b *Builder) Instance(rng *rand.Rand, size ProblemSize) (*workflow.Workflow, cloud.Catalog, error) {
	w, err := b.Random(rng, Params{
		Modules:      size.M,
		Edges:        size.E,
		WorkloadMin:  100,
		WorkloadMax:  1000,
		DataSizeMax:  10,
		AddEntryExit: true,
	})
	if err != nil {
		return nil, nil, err
	}
	return w, b.catalog(size.N), nil
}
