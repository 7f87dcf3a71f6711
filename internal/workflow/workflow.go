// Package workflow models DAG-structured scientific workflows for
// budget-constrained scheduling: modules carrying workloads, dependency
// edges carrying data sizes, execution time / cost matrices against a VM
// type catalog, schedules (module -> VM type mappings) with analytic
// makespan and cost evaluation, budget ranges, and VM-reuse planning.
package workflow

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"medcc/internal/cloud"
	"medcc/internal/dag"
)

// Module is one computing module w_i of the task graph.
type Module struct {
	// Name is the display name, e.g. "w3".
	Name string `json:"name"`
	// Workload is WL_i, the computational demand. Execution time on VM
	// type j is Workload / VP_j. Ignored when Fixed is true.
	Workload float64 `json:"workload"`
	// Fixed marks entry/exit-style modules with a constant execution
	// time on any VM and zero financial cost (the paper's w0 and w_end,
	// assumed to take one hour each and be free).
	Fixed bool `json:"fixed,omitempty"`
	// FixedTime is the constant execution time when Fixed is true.
	FixedTime float64 `json:"fixed_time,omitempty"`
}

// Workflow is a task graph G_w(V_w, E_w): modules plus dependency edges
// with data sizes DS_ij.
type Workflow struct {
	g    *dag.Graph
	mods []Module

	// edges logs every accepted dependency's source and data size in
	// insertion order: one self-append per AddDependency, so a fresh
	// workflow pays a handful of amortized slice growths and a pooled one
	// nothing once it has grown.
	edges []edgeData

	// dsOff/ds is the per-source view of the log: the data sizes of u's
	// outgoing edges are ds[dsOff[u]:dsOff[u+1]], parallel to
	// g.Succ(u) (both follow insertion order). It is rebuilt into
	// retained capacity when dsFresh is false — after any mutation — by a
	// stable counting sort of the log on source. Like the graph's topo
	// cache, it is warmed by Validate (and so by BuildMatrices) before a
	// workflow is shared between goroutines.
	dsOff   []int32
	ds      []float64
	dsFresh bool
}

// edgeData is one entry of the dependency log.
type edgeData struct {
	u  int32
	ds float64
}

// New returns an empty workflow.
func New() *Workflow {
	return &Workflow{g: dag.New()}
}

// Reset empties the workflow for rebuilding while keeping all allocated
// storage (the graph's node, adjacency and cache arrays, the module slice,
// the dependency log and its per-source view), so a pooled decoder or
// generator cycling Reset/AddModule/AddDependency/BuildMatricesInto
// reaches a steady state with zero allocations. The graph's Version
// changes, which invalidates any scheduler engine or Timing still bound to
// the old structure.
func (w *Workflow) Reset() {
	w.g.Reset()
	w.mods = w.mods[:0]
	w.edges = w.edges[:0]
	w.dsFresh = false
}

// AddModule appends a module and returns its index.
func (w *Workflow) AddModule(m Module) int {
	id := w.g.AddNode(m.Name)
	w.mods = append(w.mods, m)
	w.dsFresh = false
	return id
}

// AddDependency inserts a dependency edge u -> v carrying dataSize units.
func (w *Workflow) AddDependency(u, v int, dataSize float64) error {
	if dataSize < 0 || math.IsNaN(dataSize) || math.IsInf(dataSize, 0) {
		return fmt.Errorf("workflow: invalid data size %v on edge (%d,%d)", dataSize, u, v)
	}
	if err := w.g.AddEdge(u, v); err != nil {
		return err
	}
	w.edges = append(w.edges, edgeData{u: int32(u), ds: dataSize})
	w.dsFresh = false
	return nil
}

// Graph exposes the underlying DAG (read-only by convention).
func (w *Workflow) Graph() *dag.Graph { return w.g }

// NumModules returns the module count, including fixed entry/exit modules.
func (w *Workflow) NumModules() int { return len(w.mods) }

// NumDependencies returns the edge count.
func (w *Workflow) NumDependencies() int { return w.g.NumEdges() }

// Module returns module i.
func (w *Workflow) Module(i int) Module { return w.mods[i] }

// DataSize returns DS_uv for edge u -> v (zero if the edge is absent). It
// scans u's successor list; loops that already walk Graph().Succ(u) should
// read DataSizes(u) in step instead.
func (w *Workflow) DataSize(u, v int) float64 {
	if u < 0 || u >= len(w.mods) {
		return 0
	}
	for k, s := range w.g.Succ(u) {
		if s == v {
			return w.DataSizes(u)[k]
		}
	}
	return 0
}

// DataSizes returns the data sizes of u's outgoing edges, parallel to
// Graph().Succ(u): DataSizes(u)[k] is DS of edge u -> Succ(u)[k]. The
// slice is shared with the workflow and must not be modified; it is valid
// until the next mutation.
func (w *Workflow) DataSizes(u int) []float64 {
	if !w.dsFresh {
		w.buildDataView()
	}
	return w.ds[w.dsOff[u]:w.dsOff[u+1]]
}

// buildDataView regroups the dependency log by source into dsOff/ds with
// a stable counting sort, so each source's sizes keep insertion order —
// the order of its successor list.
//
// medcc:coldpath — runs once per rebuilt instance (Validate warms it);
// growth allocates only until the arrays reach the largest instance seen.
func (w *Workflow) buildDataView() {
	n := len(w.mods)
	w.dsOff = resize(w.dsOff, n+1)
	clear(w.dsOff)
	for _, e := range w.edges {
		w.dsOff[e.u+1]++
	}
	for u := 0; u < n; u++ {
		w.dsOff[u+1] += w.dsOff[u]
	}
	// Fill using dsOff[u] as u's cursor; afterwards it holds u's end, i.e.
	// the start of u+1, so shifting the array by one restores the offsets.
	w.ds = resize(w.ds, len(w.edges))
	for _, e := range w.edges {
		w.ds[w.dsOff[e.u]] = e.ds
		w.dsOff[e.u]++
	}
	copy(w.dsOff[1:], w.dsOff[:n])
	w.dsOff[0] = 0
	w.dsFresh = true
}

// resize returns s with length n, reusing its backing array when the
// capacity suffices. Contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Schedulable returns the indices of modules that must be mapped to a VM
// type (everything not Fixed), in index order.
func (w *Workflow) Schedulable() []int {
	return w.SchedulableInto(nil)
}

// SchedulableInto is Schedulable with a reusable destination: dst is
// truncated and refilled, so engines rebinding to a pooled workflow reuse
// their module list instead of reallocating it per instance.
//
// medcc:allocfree — appends stay within dst's capacity once it has grown
// to the largest module count seen.
func (w *Workflow) SchedulableInto(dst []int) []int {
	dst = dst[:0]
	for i, m := range w.mods {
		if !m.Fixed {
			dst = append(dst, i)
		}
	}
	return dst
}

// Validate checks the structure: an acyclic graph, valid workloads, and at
// least one schedulable module. Like the graph's topo cache, the
// per-source data-size view is warmed here, so a validated workflow is
// safe for concurrent readers.
func (w *Workflow) Validate() error {
	if err := w.g.Validate(); err != nil {
		return err
	}
	if !w.dsFresh {
		w.buildDataView()
	}
	sched := 0
	for i, m := range w.mods {
		if m.Fixed {
			if m.FixedTime < 0 || math.IsNaN(m.FixedTime) || math.IsInf(m.FixedTime, 0) {
				return fmt.Errorf("workflow: module %d has invalid fixed time %v", i, m.FixedTime)
			}
			continue
		}
		sched++
		if m.Workload < 0 || math.IsNaN(m.Workload) || math.IsInf(m.Workload, 0) {
			return fmt.Errorf("workflow: module %d has invalid workload %v", i, m.Workload)
		}
	}
	if sched == 0 {
		return errors.New("workflow: no schedulable modules")
	}
	return nil
}

// Clone returns a deep copy.
func (w *Workflow) Clone() *Workflow {
	return &Workflow{
		g:     w.g.Clone(),
		mods:  append([]Module(nil), w.mods...),
		edges: append([]edgeData(nil), w.edges...),
	}
}

// ZeroTransfer is the intra-datacenter edge-weight function: all transfer
// times are negligible (the paper's evaluation setting, CR = 0 and
// high-bandwidth shared storage).
func ZeroTransfer(u, v int) float64 { return 0 }

// TransferByBandwidth builds a dag.EdgeWeight charging DS_uv/bandwidth +
// delay on every edge, the uniform-fabric version of Eq. 5.
func (w *Workflow) TransferByBandwidth(bandwidth, delay float64) dag.EdgeWeight {
	return func(u, v int) float64 {
		ds := w.DataSize(u, v)
		if ds == 0 {
			return 0
		}
		return ds/bandwidth + delay
	}
}

// Matrices holds the per-module execution time (TE) and execution cost (CE)
// matrices over a VM type catalog: TE[i][j] is the time of module i on type
// j, CE[i][j] the billed cost. Fixed modules have their fixed time in every
// column of TE and zero in CE.
type Matrices struct {
	TE, CE  [][]float64
	Catalog cloud.Catalog
	Billing cloud.BillingPolicy

	// opts caches, per module, the VM-type indices that survive dominance
	// pruning (see BuildOptions). Built once by BuildMatrices; nil when
	// the Matrices were assembled by hand and BuildOptions was not called.
	opts [][]int

	// soaOff/soaTyp/soaTE/soaCE are the structure-of-arrays option table:
	// the surviving options of module i occupy rows soaOff[i]:soaOff[i+1],
	// sorted by execution time ascending (ties by type index ascending),
	// each row carrying its VM-type index, TE, and CE contiguously. Upgrade
	// scans walk one dense block per module and stop at the first row whose
	// time is no improvement — every later row is slower still. Rebuilt by
	// BuildOptions alongside opts, reusing capacity.
	soaOff []int32
	soaTyp []int32
	soaTE  []float64
	soaCE  []float64

	// epoch distinguishes successive in-place rebuilds of the same
	// Matrices value (BuildMatricesInto): caches keyed on a *Matrices
	// pointer compare epochs to detect that the contents changed behind
	// the same address. Assigned from a process-wide counter, so no two
	// builds ever share an epoch.
	epoch uint64
}

// matricesEpoch is the process-wide build counter backing Matrices.Epoch.
var matricesEpoch atomic.Uint64

// Epoch identifies this build of the Matrices contents. It changes every
// time BuildMatrices or BuildMatricesInto (re)fills a Matrices, including
// rebuilds in place at the same address; hand-assembled Matrices report 0.
func (m *Matrices) Epoch() uint64 { return m.epoch }

// BuildOptions precomputes, for every module, the list of VM-type indices
// worth scanning: type j is dropped when an earlier type k <= j is at least
// as fast AND at least as cheap for that module (TE[i][k] <= TE[i][j] and
// CE[i][k] <= CE[i][j]). Such a j can never be preferred by any scheduler
// in this repo — every ranking criterion weakly prefers k, and on exact
// ties every scanner takes the lower index first — so pruning leaves all
// schedules bit-for-bit unchanged while shrinking the inner O(m*n) scans.
// Under round-up billing dominated types are common: a faster VM often
// bills fewer rounded hours and ends up cheaper as well.
//
// BuildMatrices calls this automatically; call it manually after building
// Matrices by hand (the schedulers reject matrices without it). Not safe
// for concurrent use with readers.
func (m *Matrices) BuildOptions() {
	if cap(m.opts) < len(m.TE) {
		next := make([][]int, len(m.TE))
		copy(next, m.opts[:cap(m.opts)])
		m.opts = next
	} else {
		m.opts = m.opts[:len(m.TE)]
	}
	for i := range m.TE {
		n := len(m.TE[i])
		opts := m.opts[i][:0]
		if cap(opts) < n {
			opts = make([]int, 0, n)
		}
		for j := 0; j < n; j++ {
			dominated := false
			for _, k := range opts {
				if m.TE[i][k] <= m.TE[i][j] && m.CE[i][k] <= m.CE[i][j] {
					dominated = true
					break
				}
			}
			if !dominated {
				opts = append(opts, j)
			}
		}
		m.opts[i] = opts
	}
	m.buildOptionTable()
}

// buildOptionTable fills the flat (type, TE, CE) table from the pruned
// options, insertion-sorting each module's rows by (TE asc, type asc). The
// per-module option counts are tiny (bounded by the catalog size), so the
// quadratic insert is faster than sort.Sort and allocation-free.
func (m *Matrices) buildOptionTable() {
	nm := len(m.TE)
	if cap(m.soaOff) < nm+1 {
		m.soaOff = make([]int32, nm+1)
	} else {
		m.soaOff = m.soaOff[:nm+1]
	}
	m.soaTyp = m.soaTyp[:0]
	m.soaTE = m.soaTE[:0]
	m.soaCE = m.soaCE[:0]
	for i := 0; i < nm; i++ {
		m.soaOff[i] = int32(len(m.soaTyp))
		base := int(m.soaOff[i])
		for _, j := range m.opts[i] {
			te, ce := m.TE[i][j], m.CE[i][j]
			k := len(m.soaTyp)
			m.soaTyp = append(m.soaTyp, 0)
			m.soaTE = append(m.soaTE, 0)
			m.soaCE = append(m.soaCE, 0)
			// Strict > keeps the insert stable: equal-TE rows preserve the
			// ascending type order opts already has.
			for k > base && m.soaTE[k-1] > te {
				m.soaTyp[k] = m.soaTyp[k-1]
				m.soaTE[k] = m.soaTE[k-1]
				m.soaCE[k] = m.soaCE[k-1]
				k--
			}
			m.soaTyp[k] = int32(j)
			m.soaTE[k] = te
			m.soaCE[k] = ce
		}
	}
	m.soaOff[nm] = int32(len(m.soaTyp))
}

// HasOptionTable reports whether BuildOptions has run on these matrices,
// i.e. whether Options and OptionTable are available. The schedulers of
// package sched reject matrices without it.
func (m *Matrices) HasOptionTable() bool { return m.soaOff != nil }

// OptionTable returns module i's dominance-pruned options as a
// structure-of-arrays view sorted by execution time ascending (ties by
// type index ascending): typ[k] is the VM-type index of row k, te[k] and
// ce[k] its execution time and cost. All three slices are nil when
// BuildOptions has not run. The slices are shared and must not be
// modified.
func (m *Matrices) OptionTable(i int) (typ []int32, te, ce []float64) {
	if m.soaOff == nil {
		return nil, nil, nil
	}
	lo, hi := m.soaOff[i], m.soaOff[i+1]
	return m.soaTyp[lo:hi], m.soaTE[lo:hi], m.soaCE[lo:hi]
}

// Options returns the dominance-pruned VM-type indices for module i in
// ascending order, or nil when BuildOptions has not run. The slice is
// shared and must not be modified.
func (m *Matrices) Options(i int) []int {
	if m.opts == nil {
		return nil
	}
	return m.opts[i]
}

// BuildMatrices computes TE and CE for the workflow over the catalog under
// a billing policy (step executed once, O(m*n), per §V-B).
func (w *Workflow) BuildMatrices(cat cloud.Catalog, billing cloud.BillingPolicy) (*Matrices, error) {
	return w.BuildMatricesInto(cat, billing, nil)
}

// BuildMatricesInto is BuildMatrices with a reusable destination: when dst
// is non-nil its TE/CE rows, options lists, and row headers are reused
// wherever the shapes match, so a pooled builder recomputing matrices for
// a stream of same-sized instances allocates nothing in steady state. The
// returned Matrices is dst when provided (refilled in place, with a fresh
// Epoch) and newly allocated otherwise.
func (w *Workflow) BuildMatricesInto(cat cloud.Catalog, billing cloud.BillingPolicy, dst *Matrices) (*Matrices, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if billing == nil {
		billing = cloud.HourlyRoundUp
	}
	m := len(w.mods)
	n := len(cat)
	mt := dst
	if mt == nil {
		mt = &Matrices{}
	}
	mt.Catalog = cat
	mt.Billing = billing
	mt.TE = growRows(mt.TE, m, n)
	mt.CE = growRows(mt.CE, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if w.mods[i].Fixed {
				mt.TE[i][j] = w.mods[i].FixedTime
				mt.CE[i][j] = 0
				continue
			}
			mt.TE[i][j] = cat[j].ExecTime(w.mods[i].Workload)
			mt.CE[i][j] = cloud.ExecCost(billing, cat[j], w.mods[i].Workload)
		}
	}
	mt.BuildOptions()
	mt.epoch = matricesEpoch.Add(1)
	return mt, nil
}

// growRows resizes a row-major matrix to m rows of n columns, reusing the
// outer slice and every row whose capacity suffices.
func growRows(rows [][]float64, m, n int) [][]float64 {
	if cap(rows) < m {
		next := make([][]float64, m)
		copy(next, rows[:cap(rows)])
		rows = next
	} else {
		rows = rows[:m]
	}
	for i := range rows {
		if cap(rows[i]) < n {
			rows[i] = make([]float64, n)
		} else {
			rows[i] = rows[i][:n]
		}
	}
	return rows
}

// SetWorkload replaces the workload of module i (used by generators).
func (w *Workflow) SetWorkload(i int, wl float64) { w.mods[i].Workload = wl }
