package gen

import (
	"fmt"
	"math/rand"

	"medcc/internal/workflow"
)

// Pipeline builds a linear chain of n modules with uniform workloads drawn
// from [lo, hi].
func Pipeline(rng *rand.Rand, n int, lo, hi float64) *workflow.Workflow {
	w := workflow.New()
	for i := 0; i < n; i++ {
		w.AddModule(workflow.Module{Name: fmt.Sprintf("p%d", i), Workload: uniform(rng, lo, hi)})
		if i > 0 {
			mustDep(w, i-1, i, 0)
		}
	}
	return w
}

// ForkJoin builds a fixed entry module fanning out to width parallel
// modules that join into a fixed exit module — the bag-of-tasks shape that
// maximizes the gap between critical-path-aware and local scheduling.
func ForkJoin(rng *rand.Rand, width int, lo, hi float64) *workflow.Workflow {
	w := workflow.New()
	entry := w.AddModule(workflow.Module{Name: "fork", Fixed: true, FixedTime: 1})
	var mids []int
	for i := 0; i < width; i++ {
		mids = append(mids, w.AddModule(workflow.Module{Name: fmt.Sprintf("b%d", i), Workload: uniform(rng, lo, hi)}))
	}
	exit := w.AddModule(workflow.Module{Name: "join", Fixed: true, FixedTime: 1})
	for _, m := range mids {
		mustDep(w, entry, m, 0)
		mustDep(w, m, exit, 0)
	}
	return w
}

// Layered builds depth layers of width modules each; every module depends
// on every module of the previous layer (a dense level-synchronous DAG,
// the shape of iterative stencil workflows).
func Layered(rng *rand.Rand, depth, width int, lo, hi float64) *workflow.Workflow {
	w := workflow.New()
	var prev []int
	for d := 0; d < depth; d++ {
		var cur []int
		for k := 0; k < width; k++ {
			cur = append(cur, w.AddModule(workflow.Module{
				Name:     fmt.Sprintf("l%d_%d", d, k),
				Workload: uniform(rng, lo, hi),
			}))
		}
		for _, p := range prev {
			for _, c := range cur {
				mustDep(w, p, c, 0)
			}
		}
		prev = cur
	}
	return w
}

// MontageLike builds the characteristic shape of the Montage astronomy
// workflow: a wide projection fan, a denser overlap-fitting layer, a
// concentration stage, and a short tail pipeline. Workloads follow the
// stage profile (fan stages light, tail stages heavy).
func MontageLike(rng *rand.Rand, width int) *workflow.Workflow {
	w := workflow.New()
	entry := w.AddModule(workflow.Module{Name: "mImgTbl", Fixed: true, FixedTime: 1})
	// Stage 1: mProject — one light module per input image.
	var proj []int
	for i := 0; i < width; i++ {
		proj = append(proj, w.AddModule(workflow.Module{
			Name:     fmt.Sprintf("mProject%d", i),
			Workload: uniform(rng, 10, 30),
		}))
		mustDep(w, entry, proj[i], 1)
	}
	// Stage 2: mDiffFit between neighboring projections.
	var diff []int
	for i := 0; i+1 < width; i++ {
		d := w.AddModule(workflow.Module{
			Name:     fmt.Sprintf("mDiffFit%d", i),
			Workload: uniform(rng, 5, 15),
		})
		diff = append(diff, d)
		mustDep(w, proj[i], d, 2)
		mustDep(w, proj[i+1], d, 2)
	}
	// Stage 3: mConcatFit/mBgModel gathers all fits.
	bg := w.AddModule(workflow.Module{Name: "mBgModel", Workload: uniform(rng, 40, 80)})
	for _, d := range diff {
		mustDep(w, d, bg, 1)
	}
	// Stage 4: mBackground per image, gated by the model.
	var back []int
	for i := 0; i < width; i++ {
		b := w.AddModule(workflow.Module{
			Name:     fmt.Sprintf("mBackground%d", i),
			Workload: uniform(rng, 10, 25),
		})
		back = append(back, b)
		mustDep(w, bg, b, 1)
		mustDep(w, proj[i], b, 2)
	}
	// Tail: mImgTbl2 -> mAdd -> mShrink -> mJPEG.
	add := w.AddModule(workflow.Module{Name: "mAdd", Workload: uniform(rng, 60, 120)})
	for _, b := range back {
		mustDep(w, b, add, 3)
	}
	shrink := w.AddModule(workflow.Module{Name: "mShrink", Workload: uniform(rng, 20, 40)})
	mustDep(w, add, shrink, 2)
	jpeg := w.AddModule(workflow.Module{Name: "mJPEG", Workload: uniform(rng, 5, 10)})
	mustDep(w, shrink, jpeg, 1)
	return w
}

// CyberShakeLike builds the characteristic shape of the CyberShake
// seismic-hazard workflow: a pair of heavy master stages (strain Green
// tensor generation) feeding a very wide fan of light seismogram/peak
// modules, gathered by a final hazard-curve stage. It stresses schedulers
// with extreme width fed from few heavy roots.
func CyberShakeLike(rng *rand.Rand, width int) *workflow.Workflow {
	w := workflow.New()
	entry := w.AddModule(workflow.Module{Name: "preCVM", Fixed: true, FixedTime: 1})
	sgtX := w.AddModule(workflow.Module{Name: "sgtGenX", Workload: uniform(rng, 300, 500)})
	sgtY := w.AddModule(workflow.Module{Name: "sgtGenY", Workload: uniform(rng, 300, 500)})
	mustDep(w, entry, sgtX, 5)
	mustDep(w, entry, sgtY, 5)
	gather := w.AddModule(workflow.Module{Name: "hazardCurve", Workload: uniform(rng, 40, 80)})
	for i := 0; i < width; i++ {
		seis := w.AddModule(workflow.Module{
			Name:     fmt.Sprintf("seismogram%d", i),
			Workload: uniform(rng, 5, 20),
		})
		mustDep(w, sgtX, seis, 8)
		mustDep(w, sgtY, seis, 8)
		peak := w.AddModule(workflow.Module{
			Name:     fmt.Sprintf("peakVal%d", i),
			Workload: uniform(rng, 1, 5),
		})
		mustDep(w, seis, peak, 1)
		mustDep(w, peak, gather, 0.5)
	}
	return w
}

// EpigenomicsLike builds the characteristic shape of the Epigenomics
// sequence-processing workflow: several independent lanes, each a deep
// pipeline (filter -> sol2sanger -> fastq2bfq -> map), merged lane-wise
// and then globally — deep chains next to moderate width.
func EpigenomicsLike(rng *rand.Rand, lanes int) *workflow.Workflow {
	w := workflow.New()
	entry := w.AddModule(workflow.Module{Name: "fastQSplit", Fixed: true, FixedTime: 1})
	global := w.AddModule(workflow.Module{Name: "mapMerge", Workload: uniform(rng, 50, 100)})
	stages := []struct {
		name string
		lo   float64
		hi   float64
	}{
		{"filterContams", 10, 30}, {"sol2sanger", 5, 15},
		{"fastq2bfq", 5, 15}, {"map", 150, 400},
	}
	for l := 0; l < lanes; l++ {
		prev := entry
		for _, st := range stages {
			id := w.AddModule(workflow.Module{
				Name:     fmt.Sprintf("%s%d", st.name, l),
				Workload: uniform(rng, st.lo, st.hi),
			})
			mustDep(w, prev, id, 2)
			prev = id
		}
		mustDep(w, prev, global, 3)
	}
	tail := w.AddModule(workflow.Module{Name: "maqIndex", Workload: uniform(rng, 20, 40)})
	mustDep(w, global, tail, 2)
	return w
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + float64(rng.Float64()*(hi-lo))
}

func mustDep(w *workflow.Workflow, u, v int, ds float64) {
	if err := w.AddDependency(u, v, ds); err != nil {
		panic(err) // static topology builders: failure is a bug
	}
}
