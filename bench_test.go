package medcc

// One benchmark per table and figure of the paper's evaluation (the
// experiment index of DESIGN.md §4), plus micro-benchmarks of the pieces
// each experiment is assembled from. The per-experiment benches run the
// same harness code as cmd/experiments with CI-sized instance counts, so
// `go test -bench=. -benchmem` both times the pipeline and re-validates
// that every experiment still completes (CI runs each benchmark once,
// `-benchtime 1x`, for that check alone).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"medcc/internal/analysis"
	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/encoding"
	"medcc/internal/exper"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/serve"
	"medcc/internal/sim"
	"medcc/internal/testbed"
	"medcc/internal/workflow"
	"medcc/internal/wrf"
)

// --- E2/E3: numerical example (Table II, Fig. 6) ---

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4/E5: optimality studies (Table III, Fig. 7) ---

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.TableIII(exper.DefaultSeed, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig7(exper.DefaultSeed, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Table IV / Fig. 8 ---

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.TableIV(exper.DefaultSeed, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7-E9: the Fig. 9/10/11 campaign ---

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := exper.Campaign(exper.DefaultSeed, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		exper.Fig9(cells)
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := exper.Campaign(exper.DefaultSeed, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		exper.Fig10(cells)
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Campaign(exper.DefaultSeed, 2, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: WRF testbed experiment (Table VII, Fig. 15) ---

func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.TableVII()
		if err != nil {
			b.Fatal(err)
		}
		exper.Fig15(rows)
	}
}

// --- A1/A2: ablation and validation ---

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Ablation(exper.DefaultSeed, gen.ProblemSize{M: 20, E: 80, N: 5}, 2, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.SimValidation(exper.DefaultSeed, gen.ProblemSize{M: 20, E: 80, N: 5}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A3/A4/A5: extension experiments ---

func BenchmarkProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Provisioning(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiCloud(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.MultiCloud(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Clustering(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTestbedCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.TestbedCapacity(exper.DefaultSeed, 8, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Adaptive(exper.DefaultSeed, gen.ProblemSize{M: 12, E: 25, N: 4}, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the underlying pieces ---

// instance builds one solver input: a workflow, its matrices and a
// budget.
type instance func(testing.TB) (*workflow.Workflow, *workflow.Matrices, float64)

// The solver benchmarks' inputs. The pins in alloc_test.go solve the same
// instances, so an allocation that shows in a benchmark's allocs/op fails
// a tier-1 test.
var (
	instance20    = randomInstance(gen.ProblemSize{M: 20, E: 80, N: 5})
	instance100   = randomInstance(gen.ProblemSize{M: 100, E: 2344, N: 9})
	instance500   = randomInstance(gen.ProblemSize{M: 500, E: 58600, N: 9})
	instance2000  = randomInstance(gen.ProblemSize{M: 2000, E: 120000, N: 9})
	instanceOpt8  = randomInstance(gen.ProblemSize{M: 8, E: 18, N: 3})
	instanceOpt10 = randomInstance(gen.ProblemSize{M: 10, E: 22, N: 3})
)

// randomInstance is the seed-1 generated instance of the given size at
// its mid budget.
func randomInstance(size gen.ProblemSize) instance {
	return func(tb testing.TB) (*workflow.Workflow, *workflow.Matrices, float64) {
		tb.Helper()
		w, cat, err := gen.Instance(rand.New(rand.NewSource(1)), size)
		if err != nil {
			tb.Fatal(err)
		}
		return midBudget(tb, w, cat)
	}
}

// instanceTied1000 is a fork-join of 1000 identical branches at its mid
// budget. Every branch is critical at once, so most CG accepts leave the
// makespan unchanged, which random instances never do.
func instanceTied1000(tb testing.TB) (*workflow.Workflow, *workflow.Matrices, float64) {
	tb.Helper()
	w := gen.ForkJoin(rand.New(rand.NewSource(1)), 1000, 500, 500)
	return midBudget(tb, w, cloud.DiminishingCatalog(9, 3, 1, gen.SimulationGamma))
}

// midBudget binds w to cat under hourly billing and returns the mid
// budget (Cmin+Cmax)/2.
func midBudget(tb testing.TB, w *workflow.Workflow, cat cloud.Catalog) (*workflow.Workflow, *workflow.Matrices, float64) {
	tb.Helper()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		tb.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	return w, m, (cmin + cmax) / 2
}

// benchSolve times ScheduleInto on one instance. A first call grows the
// scheduler's scratch, and every timed call refills the same destination
// schedule, so allocs/op reads the steady state.
func benchSolve(b *testing.B, sch sched.IntoScheduler, inst instance) {
	b.Helper()
	w, m, budget := inst(b)
	b.ReportAllocs()
	dst, err := sch.ScheduleInto(nil, w, m, budget)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.ScheduleInto(dst, w, m, budget); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalGreedy20(b *testing.B) {
	benchSolve(b, sched.CriticalGreedy(), instance20)
}

func BenchmarkCriticalGreedy100(b *testing.B) {
	benchSolve(b, sched.CriticalGreedy(), instance100)
}

func BenchmarkCriticalGreedy500(b *testing.B) {
	benchSolve(b, sched.CriticalGreedy(), instance500)
}

func BenchmarkCriticalGreedy2000(b *testing.B) {
	benchSolve(b, sched.CriticalGreedy(), instance2000)
}

func BenchmarkCriticalGreedyTied1000(b *testing.B) {
	benchSolve(b, sched.CriticalGreedy(), instanceTied1000)
}

func BenchmarkGAIN3_100(b *testing.B) {
	benchSolve(b, &sched.GAIN{Label: "gain3"}, instance100)
}

func BenchmarkGAIN3_500(b *testing.B) {
	benchSolve(b, &sched.GAIN{Label: "gain3"}, instance500)
}

func BenchmarkGain3WRF100(b *testing.B) {
	benchSolve(b, &sched.Gain3WRF{}, instance100)
}

func BenchmarkOptimal8(b *testing.B) {
	benchSolve(b, &sched.Optimal{}, instanceOpt8)
}

func BenchmarkOptimal10(b *testing.B) {
	benchSolve(b, &sched.Optimal{}, instanceOpt10)
}

// BenchmarkOptimalDeadline10 times the exact deadline dual on
// BenchmarkOptimal10's instance at its mid deadline, on one solver whose
// scratch a first call grew. Each solve allocates its Result and
// schedule.
func BenchmarkOptimalDeadline10(b *testing.B) {
	w, m, d := midDeadline(b, instanceOpt10)
	o := &sched.Optimal{}
	b.ReportAllocs()
	if _, err := o.Deadline(w, m, d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Deadline(w, m, d); err != nil {
			b.Fatal(err)
		}
	}
}

// midDeadline returns inst's workflow and matrices with the deadline
// halfway between the fastest and the least-cost schedule's makespans.
func midDeadline(tb testing.TB, inst instance) (*workflow.Workflow, *workflow.Matrices, float64) {
	tb.Helper()
	w, m, _ := inst(tb)
	fast, err := w.Evaluate(m, m.Fastest(w), nil)
	if err != nil {
		tb.Fatal(err)
	}
	cheap, err := w.Evaluate(m, m.LeastCost(w), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return w, m, (fast.Makespan + cheap.Makespan) / 2
}

// benchSweepGrid times one staircase build: sched.SweepGrid with the
// service's default grid over the instance's whole budget range, on one
// reused scheduler as a serve worker builds them. Every build allocates
// its staircase, so allocs/op is not zero.
func benchSweepGrid(b *testing.B, sch sched.IntoScheduler, inst instance) {
	b.Helper()
	w, m, _ := inst(b)
	cmin, cmax := m.BudgetRange(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.SweepGrid(sch, w, m, cmin, cmax, sched.GridOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepGridCriticalGreedy100(b *testing.B) {
	benchSweepGrid(b, sched.CriticalGreedy(), instance100)
}

func BenchmarkSweepGridGAIN3_100(b *testing.B) {
	benchSweepGrid(b, &sched.GAIN{Label: "gain3"}, instance100)
}

// sweepLevels is the campaign's budget grid over an instance: 20
// ascending levels, level k at fraction k/20 of [Cmin, Cmax].
func sweepLevels(w *workflow.Workflow, m *workflow.Matrices) []float64 {
	cmin, cmax := m.BudgetRange(w)
	budgets := make([]float64, 20)
	for k := range budgets {
		budgets[k] = sched.BudgetAt(cmin, cmax, float64(k+1)/20)
	}
	return budgets
}

// benchSweep times one campaign sweep stage: SweepInto over 20 levels of
// the instance's budget range into reused destinations, as a campaign
// worker runs each algorithm on each instance. The pins in alloc_test.go
// hold it at 0 allocs/op.
func benchSweep(b *testing.B, sw sched.Sweeper, inst instance) {
	b.Helper()
	w, m, _ := inst(b)
	budgets := sweepLevels(w, m)
	dst, err := sw.SweepInto(nil, w, m, budgets)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.SweepInto(dst, w, m, budgets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalGreedySweep100(b *testing.B) {
	benchSweep(b, sched.CriticalGreedy(), instance100)
}

func BenchmarkGAIN3Sweep100(b *testing.B) {
	benchSweep(b, &sched.GAIN{Label: "gain3"}, instance100)
}

// BenchmarkRunnerMED100 times the campaign's reduction stage: one
// Runner.MED per level of Critical-Greedy's 20-level sweep of
// instance100.
func BenchmarkRunnerMED100(b *testing.B) {
	w, m, _ := instance100(b)
	rows, err := sched.SweepSchedules(sched.CriticalGreedy(), nil, w, m, sweepLevels(w, m))
	if err != nil {
		b.Fatal(err)
	}
	var r sched.Runner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range rows {
			if _, err := r.MED(w, m, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// nodeUpdate is one UpdateNode call of an update program.
type nodeUpdate struct {
	node int
	w    float64
}

// criticalProgram builds the update program of internal/dag's
// TestUpdateNodeSweepPolicy (its criticalProgram; keep the two in step):
// over weights that are the module workloads (fixed times for fixed
// modules), up to steps Critical-Greedy steps at an unlimited budget,
// each moving the critical non-fixed module whose time would fall the
// most to its fastest time, a seeded 15-25% of its workload, then the
// undo of those steps in reverse order. Replaying it from weights
// returns to weights.
func criticalProgram(tb testing.TB, w *workflow.Workflow, steps int) (weights []float64, prog []nodeUpdate) {
	tb.Helper()
	n := w.NumModules()
	rng := rand.New(rand.NewSource(2))
	weights = make([]float64, n)
	fastest := make([]float64, n)
	for i := range weights {
		if mod := w.Module(i); mod.Fixed {
			weights[i] = mod.FixedTime
			fastest[i] = mod.FixedTime
		} else {
			weights[i] = mod.Workload
			fastest[i] = mod.Workload * (0.15 + float64(0.1*rng.Float64()))
		}
	}
	cur := append([]float64(nil), weights...)
	t, err := dag.NewTiming(w.Graph(), cur, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for len(prog) < steps {
		best := -1
		for i := 0; i < n; i++ {
			if cur[i] > fastest[i] && t.IsCritical(i) &&
				(best < 0 || cur[i]-fastest[i] > cur[best]-fastest[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		prog = append(prog, nodeUpdate{best, fastest[best]})
		t.UpdateNode(best, fastest[best])
	}
	for k := len(prog) - 1; k >= 0; k-- {
		prog = append(prog, nodeUpdate{prog[k].node, weights[prog[k].node]})
	}
	return weights, prog
}

// BenchmarkUpdateNodeCritical times dag.Timing.UpdateNode, one update per
// op, cycling the sweep-policy pin's update programs: paper55 and
// paper100 are the paper's sizes 11 and 20, dense500 and gen2000 the
// m = 500 and m = 2000 instances of the CriticalGreedy benchmarks (their
// steps spread over most of the graph, or are bimodal at m = 2000),
// library500 a serve-library random DAG and tied1000 the tied fork-join
// (their steps stay local). Steady state is 0 allocs/op.
func BenchmarkUpdateNodeCritical(b *testing.B) {
	instanceOf := func(size gen.ProblemSize) func(testing.TB) *workflow.Workflow {
		return func(tb testing.TB) *workflow.Workflow {
			w, _, err := gen.Instance(rand.New(rand.NewSource(1)), size)
			if err != nil {
				tb.Fatal(err)
			}
			return w
		}
	}
	shapes := []struct {
		name  string
		build func(testing.TB) *workflow.Workflow
	}{
		{"paper55", instanceOf(gen.PaperProblemSizes()[10])},
		{"paper100", instanceOf(gen.PaperProblemSizes()[19])},
		{"dense500", instanceOf(gen.ProblemSize{M: 500, E: 58600, N: 9})},
		{"gen2000", instanceOf(gen.ProblemSize{M: 2000, E: 120000, N: 9})},
		{"library500", func(tb testing.TB) *workflow.Workflow {
			w, err := gen.Random(rand.New(rand.NewSource(1)), gen.Params{
				Modules: 500, Edges: 2000, WorkloadMin: 100, WorkloadMax: 1000,
				DataSizeMax: 10, AddEntryExit: true,
			})
			if err != nil {
				tb.Fatal(err)
			}
			return w
		}},
		{"tied1000", func(testing.TB) *workflow.Workflow {
			return gen.ForkJoin(rand.New(rand.NewSource(1)), 1000, 500, 500)
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			w := sh.build(b)
			weights, prog := criticalProgram(b, w, 64)
			t, err := dag.NewTiming(w.Graph(), weights, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := prog[i%len(prog)]
				t.UpdateNode(u.node, u.w)
			}
		})
	}
}

func BenchmarkTimingPass100(b *testing.B) {
	w, m, _ := instance100(b)
	s := m.LeastCost(w)
	times := m.Times(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dag.NewTiming(w.Graph(), times, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorReplay100(b *testing.B) {
	w, m, budget := instance100(b)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, budget)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Workflow: w, Matrices: m, Schedule: res.Schedule, Bandwidth: 50, Delay: 0.001, BootTime: 0.1}
	// Warm once so the loop measures the pooled replayer's steady state
	// (same pattern as the scheduler benches): allocs/op should read 0.
	var r sim.Replayer
	if _, err := r.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorReplayFree500 replays the serve-churn simulate
// shape: no boot time and free transfers, so every event but a module's
// finish is scheduled with zero delay and takes the queue's lane.
// BenchmarkSimulatorReplay100's positive delays never reach it.
func BenchmarkSimulatorReplayFree500(b *testing.B) {
	w, m, budget := instance500(b)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, budget)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Workflow: w, Matrices: m, Schedule: res.Schedule}
	var r sim.Replayer
	if _, err := r.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTestbedWRF(b *testing.B) {
	w := wrf.Grouped()
	m := wrf.Matrices(w)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, 186.2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testbed.DefaultConfig()
	cfg.BootTime = 30
	cfg.RepoBandwidthGBps = 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testbed.Execute(cfg, w, m, res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateInstance100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.Instance(rng, gen.ProblemSize{M: 100, E: 2344, N: 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- corpus ingest (internal/encoding) ---

// benchCorpusRecords is how many instances the ingest benches cycle per
// iteration; ns/op divides by it for a per-instance read.
const benchCorpusRecords = 64

// benchCorpus builds one in-memory binary corpus and, for the JSON
// comparator, the same workflows marshaled individually — the decode
// side of the pre-corpus ingestion path (one Unmarshal into a fresh
// workflow per instance).
func benchCorpus(b *testing.B) (bin []byte, jsons [][]byte) {
	b.Helper()
	var buf bytes.Buffer
	cw, err := encoding.NewCorpusWriter(&buf, false)
	if err != nil {
		b.Fatal(err)
	}
	var bld gen.Builder
	sizes := gen.PaperProblemSizes()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < benchCorpusRecords; i++ {
		size := sizes[i%6] // the smaller half of the grid: per-record overhead dominates there
		wf, cat, err := bld.Instance(rng, size)
		if err != nil {
			b.Fatal(err)
		}
		info := encoding.InstanceInfo{Index: int64(i), Kind: encoding.KindGenerated,
			M: uint32(size.M), E: uint32(size.E), N: uint32(size.N)}
		if err := cw.WriteInstance(wf, cat, info); err != nil {
			b.Fatal(err)
		}
		js, err := json.Marshal(wf)
		if err != nil {
			b.Fatal(err)
		}
		jsons = append(jsons, js)
	}
	if err := cw.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), jsons
}

// BenchmarkCorpusIngest reads benchCorpusRecords instances per iteration
// from an in-memory binary corpus through the pooled zero-copy decoder.
// Steady state is 0 allocs/op, pinned by TestDecodeSteadyStateAllocs in
// internal/encoding.
func BenchmarkCorpusIngest(b *testing.B) {
	data, _ := benchCorpus(b)
	var cr encoding.CorpusReader
	src := bytes.NewReader(data)
	wf := workflow.New()
	sweep := func() {
		src.Reset(data)
		if err := cr.Reset(src); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, _, err := cr.Next(wf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != benchCorpusRecords {
			b.Fatalf("read %d records", n)
		}
	}
	sweep() // warm the pooled decoder and intern table
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkInlineIngest is the ingest stage of an inline /schedule
// request, one container body per op: the calls serve makes before a
// worker solves (CorpusReader.NextRaw on a buffered reader,
// Decoder.WorkflowInto, the catalog copy, BuildMatricesInto and
// BudgetRange) into pooled storage, cycling 64 bodies of the paper's
// sizes 11-20 (m = 55..100), the serve-cold workload's instance mix.
// Steady state is 0 allocs/op, pinned by TestInlineIngestAllocs in
// internal/serve.
func BenchmarkInlineIngest(b *testing.B) {
	var (
		rb     encoding.RecordBuilder
		bodies [][]byte
	)
	for _, in := range inlineInstances(b) {
		rb.Begin()
		if err := rb.Workflow(in.w); err != nil {
			b.Fatal(err)
		}
		if err := rb.Catalog(in.cat); err != nil {
			b.Fatal(err)
		}
		body, err := rb.AppendRecord(encoding.AppendHeader(nil, 1), false)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	var (
		src bytes.Reader
		br  = bufio.NewReaderSize(nil, 1<<16)
		cr  encoding.CorpusReader
		dec encoding.Decoder
		cat cloud.Catalog
		m   workflow.Matrices
	)
	w := workflow.New()
	ingest := func(body []byte) {
		src.Reset(body)
		br.Reset(&src)
		if err := cr.Reset(br); err != nil {
			b.Fatal(err)
		}
		rec, c, _, err := cr.NextRaw()
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.WorkflowInto(rec, rec.Find(encoding.ChunkWorkflow), w); err != nil {
			b.Fatal(err)
		}
		cat = append(cat[:0], c...)
		mt, err := w.BuildMatricesInto(cat, cloud.HourlyRoundUp, &m)
		if err != nil {
			b.Fatal(err)
		}
		if lo, hi := mt.BudgetRange(w); !(lo <= hi) {
			b.Fatalf("budget range [%v, %v]", lo, hi)
		}
	}
	for _, body := range bodies { // grow every pooled array to the largest body
		ingest(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(bodies[i%len(bodies)])
	}
}

// inlineInstance is one generated workflow with its catalog.
type inlineInstance struct {
	w   *workflow.Workflow
	cat cloud.Catalog
}

// inlineInstances generates the inline benches' benchCorpusRecords
// instances: the paper's sizes 11-20 (m = 55..100) in turn from one
// seed-1 stream, the serve-cold workload's instance mix.
func inlineInstances(b *testing.B) []inlineInstance {
	b.Helper()
	sizes := gen.PaperProblemSizes()[10:]
	rng := rand.New(rand.NewSource(1))
	ins := make([]inlineInstance, benchCorpusRecords)
	for i := range ins {
		w, cat, err := gen.Instance(rng, sizes[i%len(sizes)])
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = inlineInstance{w, cat}
	}
	return ins
}

// BenchmarkInlineSolve is the solve stage of an inline /schedule request,
// one instance per op: Runner.Solve with critical-greedy and Runner.MED,
// the calls a serve worker makes after the ingest stage
// (BenchmarkInlineIngest), on one reused Runner. It cycles the same 64
// instances, each at a budget a uniform seed-2 fraction of the way
// across its range, as serve-cold draws its budget fractions. Steady
// state is 0 allocs/op.
func BenchmarkInlineSolve(b *testing.B) {
	type job struct {
		w      *workflow.Workflow
		m      *workflow.Matrices
		budget float64
	}
	var jobs []job
	rng := rand.New(rand.NewSource(2))
	for _, in := range inlineInstances(b) {
		m, err := in.w.BuildMatrices(in.cat, cloud.HourlyRoundUp)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := m.BudgetRange(in.w)
		jobs = append(jobs, job{in.w, m, sched.BudgetAt(lo, hi, rng.Float64())})
	}
	var (
		r   sched.Runner
		dst workflow.Schedule
	)
	solve := func(j job) {
		s, _, err := r.Solve("critical-greedy", dst, j.w, j.m, j.budget, nil)
		if err != nil {
			b.Fatal(err)
		}
		dst = s
		if _, err := r.MED(j.w, j.m, s); err != nil {
			b.Fatal(err)
		}
	}
	for _, j := range jobs { // grow every pooled array to the largest instance
		solve(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(jobs[i%len(jobs)])
	}
}

// BenchmarkCorpusIngestJSON is the comparator: the same instances read
// back through encoding/json, one Unmarshal into a fresh workflow per
// record, as the pre-corpus JSON ingestion path did.
func BenchmarkCorpusIngestJSON(b *testing.B) {
	_, jsons := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, js := range jsons {
			wf := workflow.New()
			if err := json.Unmarshal(js, wf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- serving: internal/serve in process (BENCHMARK.json measures HTTP) ---

// BenchmarkServeSchedule is the in-process serving hot path: a warm
// named-pair request through admission, the worker round trip, and the
// pooled response fill. The staircase cache is disabled so the number
// keeps measuring the direct scheduling path (the cached fast path has
// its own BenchmarkServeCachedSchedule). Steady state is 0 allocs/op,
// pinned by TestScheduleAllocs in internal/serve on the same
// cache-disabled configuration.
func BenchmarkServeSchedule(b *testing.B) {
	s, err := serve.New(serve.Config{Workers: 1, Cache: serve.CacheConfig{Disable: true}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p := serve.Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	var res serve.Result
	for i := 0; i < 3; i++ { // warm pools, engines, timing
		if err := s.Schedule(p, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Schedule(p, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeLibrary writes one gen.Random workflow of the given size to
// a temp JSON file and returns a Library naming it "bench" (paired with
// the built-in "paper" catalog).
func benchServeLibrary(b *testing.B, modules int) serve.Library {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	w, err := gen.Random(rng, gen.Params{
		Modules: modules, Edges: modules * 3 / 2,
		WorkloadMin: 1000, WorkloadMax: 5000, AddEntryExit: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return serve.Library{Workflows: map[string]string{"bench": path}}
}

// benchWarmCache primes the params' staircase (the first miss arms an
// asynchronous build on a worker) and polls GET /stats until a request
// is answered from it.
func benchWarmCache(b *testing.B, s *serve.Server, p serve.Params, res *serve.Result) {
	b.Helper()
	h := s.Handler()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := s.Schedule(p, res); err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest("GET", "/stats", nil)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		var st struct {
			Hits int64 `json:"cache_hits"`
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
			b.Fatal(err)
		}
		if st.Hits > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.Fatal("staircase never warmed")
}

// BenchmarkServeCachedSchedule is the in-process cache hit: binary
// search over the frozen staircase plus the pooled row copy, no engine.
// Steady state is 0 allocs/op, pinned by TestCachedScheduleAllocs in
// internal/serve.
func BenchmarkServeCachedSchedule(b *testing.B) {
	s, err := serve.New(serve.Config{Workers: 1, Library: benchServeLibrary(b, 500)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	p := serve.Params{WorkflowRef: "bench", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	var res serve.Result
	benchWarmCache(b, s, p, &res) // also grows res's buffers to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Schedule(p, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLintSelf times the full static-analysis pass over this
// module: the parallel loader (concurrent parse, wave-parallel
// type-check) plus all eleven analyzers and the stale-suppression pass.
// Each iteration builds a fresh Loader, so the number tracks the cold
// cost CI pays per lint run.
func BenchmarkLintSelf(b *testing.B) {
	root, err := analysis.FindRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loader, err := analysis.NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		mod, err := loader.LoadAll()
		if err != nil {
			b.Fatal(err)
		}
		if diags := analysis.Run(mod, analysis.All()); len(diags) != 0 {
			b.Fatalf("module is not lint-clean: %v", diags[0])
		}
	}
}
