package exper

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medcc/internal/gen"
)

func TestParallelForCoversAllItems(t *testing.T) {
	var hits [100]int32
	err := parallelForWorkers(len(hits), func(_, i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d ran %d times", i, h)
		}
	}
}

func TestParallelForWorkersCoversAllItemsOncePerWorker(t *testing.T) {
	const n = 200
	var hits [n]int32
	var perWorker [n]int32 // worker indices are < min(GOMAXPROCS, n) <= n
	err := parallelForWorkers(n, func(w, i int) error {
		atomic.AddInt32(&hits[i], 1)
		atomic.AddInt32(&perWorker[w], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d ran %d times", i, h)
		}
	}
	var total int32
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("worker counts sum to %d, want %d", total, n)
	}
}

func TestParallelForZeroAndOne(t *testing.T) {
	err := parallelForWorkers(0, func(_, i int) error {
		t.Fatal("called for n=0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	err = parallelForWorkers(1, func(_, i int) error {
		ran = true
		return errors.New("only item")
	})
	if !ran || err == nil || err.Error() != "only item" {
		t.Fatalf("n=1: ran=%v err=%v", ran, err)
	}
}

// TestParallelForWorkersErrorContract pins the fan-out error contract:
// every item runs even when some fail, and the error returned is the
// lowest-index failing item's at any worker count. The lowest failing
// item is made the slowest, so a first-to-finish rule would name a later
// one.
func TestParallelForWorkersErrorContract(t *testing.T) {
	const n = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var hits [n]int32
		err := parallelForWorkers(n, func(_, i int) error {
			atomic.AddInt32(&hits[i], 1)
			if i%10 != 7 {
				return nil
			}
			if i == 7 {
				time.Sleep(2 * time.Millisecond)
			}
			return fmt.Errorf("item %d failed", i)
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want item 7's", procs, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS=%d: item %d ran %d times", procs, i, h)
			}
		}
	}
}

// unbufferedParallelFor is the pre-buffering fan-out, kept here so the
// benchmark below can measure what the buffered work channel saves: with
// an unbuffered channel every item is a synchronous producer/consumer
// rendezvous, which dominates when items are cheap (small campaign cells).
func unbufferedParallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// BenchmarkParallelForFanOut measures pure fan-out overhead: dispatching
// cheap work items across goroutines. "buffered" is the production
// parallelForWorkers; "unbuffered" is the old synchronous-handoff loop.
func BenchmarkParallelForFanOut(b *testing.B) {
	const items = 256
	var sink atomic.Int64
	work := func(i int) { sink.Add(int64(i)) }
	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = parallelForWorkers(items, func(_, i int) error {
				work(i)
				return nil
			})
		}
	})
	b.Run("unbuffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			unbufferedParallelFor(items, work)
		}
	})
}

func TestTableIIMatchesPaperBreakpoints(t *testing.T) {
	rows, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	// The reconstruction yields 7 distinct schedules whose budget
	// breakpoints are exactly the paper's: 48, 49, 50, 52, 56, 60, 64.
	var los []float64
	for _, r := range rows {
		los = append(los, r.BudgetLo)
	}
	want := []float64{64, 60, 56, 52, 50, 49, 48}
	if len(los) != len(want) {
		t.Fatalf("%d schedules (breakpoints %v), want %d", len(los), los, len(want))
	}
	for i := range want {
		if math.Abs(los[i]-want[i]) > 1e-9 {
			t.Fatalf("breakpoints = %v, want %v", los, want)
		}
	}
	// MED strictly decreasing from bottom row (least budget) up.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].MED >= rows[i].MED {
			t.Fatalf("MED not decreasing with budget: rows %d,%d", i-1, i)
		}
	}
	// Least-cost row matches the paper's least-cost mapping 2,2,1,1,2,1.
	last := rows[len(rows)-1]
	wantMap := []int{2, 2, 1, 1, 2, 1}
	for i, m := range wantMap {
		if last.Mapping[i] != m {
			t.Fatalf("least-cost mapping = %v, want %v", last.Mapping, wantMap)
		}
	}
}

func TestFig6StaircaseShape(t *testing.T) {
	pts, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 17 { // budgets 48..64
		t.Fatalf("%d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MED > pts[i-1].MED+1e-9 {
			t.Fatalf("Fig6 MED increased at budget %v", pts[i].Budget)
		}
	}
	if pts[0].MED <= pts[len(pts)-1].MED {
		t.Fatal("staircase flat")
	}
}

func TestTableIIIRowsSound(t *testing.T) {
	rows, err := TableIII(DefaultSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	hits := 0
	for _, r := range rows {
		if r.CG < r.Optimal-1e-9 {
			t.Fatalf("CG %v beats optimal %v", r.CG, r.Optimal)
		}
		if math.Abs(r.CG-r.Optimal) <= 1e-9 {
			hits++
		}
	}
	// The paper observes CG reaching the optimum in most cases.
	if hits < len(rows)/2 {
		t.Fatalf("CG optimal in only %d/%d instances", hits, len(rows))
	}
}

func TestFig7CGDominatesGain(t *testing.T) {
	rows, err := Fig7(DefaultSeed, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	var cgSum, wSum float64
	for _, r := range rows {
		if r.CGPct < 0 || r.CGPct > 100 || r.GainPct < 0 || r.GainPct > 100 ||
			r.GainWRFPct < 0 || r.GainWRFPct > 100 {
			t.Fatalf("percentages out of range: %+v", r)
		}
		// CG should reach the optimum in a solid fraction of small
		// instances ("the same results as the optimal solution in
		// most cases").
		if r.CGPct < 50 {
			t.Fatalf("CG %% optimal only %v at %v", r.CGPct, r.Size)
		}
		cgSum += r.CGPct
		wSum += r.GainWRFPct
	}
	// Fig. 7's qualitative claim: CG reaches the optimum more often
	// than the paper's GAIN3.
	if cgSum <= wSum {
		t.Fatalf("CG %% optimal (%v) not above GAIN3 (%v) overall", cgSum/4, wSum/4)
	}
}

func TestExtendedOptimalitySizesSolve(t *testing.T) {
	// The extended exact-baseline sizes (m=10..14) must solve to proven
	// optimality — TableIIIAt/Fig7At error on any truncated instance —
	// and stay sound: no heuristic beats the exact optimum.
	sizes := ExtendedOptimalitySizes()
	rows, err := TableIIIAt(DefaultSeed, 2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(sizes) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CG < r.Optimal-1e-9 {
			t.Fatalf("CG %v beats optimal %v at %v", r.CG, r.Optimal, r.Size)
		}
	}
	f7, err := Fig7At(DefaultSeed, 4, sizes[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f7 {
		if r.CGPct < 0 || r.CGPct > 100 || r.GainPct < 0 || r.GainPct > 100 ||
			r.GainWRFPct < 0 || r.GainWRFPct > 100 {
			t.Fatalf("percentages out of range: %+v", r)
		}
	}
}

func TestTableIVSmallRun(t *testing.T) {
	rows, err := TableIV(DefaultSeed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("%d rows", len(rows))
	}
	posImp := 0
	for _, r := range rows {
		if r.CG <= 0 || r.GAIN <= 0 {
			t.Fatalf("non-positive MED in %+v", r)
		}
		if len(r.PerLvl) != 5 {
			t.Fatalf("per-level data missing")
		}
		if math.Abs(r.Ratio-r.CG/r.GAIN) > 1e-9 {
			t.Fatalf("ratio inconsistent")
		}
		if r.ImpPct > 0 {
			posImp++
		}
	}
	// The headline claim: CG improves on GAIN3 for most sizes.
	if posImp < 15 {
		t.Fatalf("positive improvement in only %d/20 sizes", posImp)
	}
}

func TestCampaignAggregations(t *testing.T) {
	cells, err := Campaign(DefaultSeed, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 20*4 {
		t.Fatalf("%d cells", len(cells))
	}
	perSize := Fig9(cells)
	perLevel := Fig10(cells)
	if len(perSize) != 20 || len(perLevel) != 4 {
		t.Fatalf("aggregation sizes: %d sizes, %d levels", len(perSize), len(perLevel))
	}
	// Average of all cells must equal average of the per-size averages
	// (balanced design).
	var all, bySize float64
	for _, c := range cells {
		all += c.AvgImp
	}
	all /= float64(len(cells))
	for _, v := range perSize {
		bySize += v
	}
	bySize /= float64(len(perSize))
	if math.Abs(all-bySize) > 1e-9 {
		t.Fatalf("aggregation mismatch: %v vs %v", all, bySize)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := Campaign(7, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(7, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d differs across identical runs", i)
		}
	}
}

// TestWarmSweepDivergesFromColdSolves pins how far the warm-started
// sweeps behind Table IV and Figs. 9-11 are from the paper's definition
// of an algorithm at a budget: one cold solve from the least-cost
// schedule. It counts the (instance, level) cells where the warm sweep's
// schedule differs from a cold ScheduleInto at the same budget, over
// both grids at DefaultSeed with 20 levels (10 instances per size for
// Figs. 9-11). Level 1 of every sweep is itself a cold solve, so at most
// 19 of each instance's 20 levels can differ. A change to either path
// moves these counts.
func TestWarmSweepDivergesFromColdSolves(t *testing.T) {
	const levels = 20
	algs := []string{"critical-greedy", "gain3-wrf"}
	for _, grid := range []struct {
		name string
		p    plan
		want []int // diverging cells per algorithm, out of p.n*levels
	}{
		{"Table IV", tableIVPlan(DefaultSeed), []int{372, 353}},
		{"Figs. 9-11", campaignPlan(DefaultSeed, 10), []int{3745, 3534}},
	} {
		diverged := make([][]int, grid.p.n) // per item, per algorithm
		err := grid.p.run(nil, func(cs *campaignScratch, k int, cmin, cmax float64) error {
			budgets := cs.budgetGrid(cmin, cmax, levels)
			diverged[k] = make([]int, len(algs))
			for a, name := range algs {
				warm, err := cs.sweep(name, budgets)
				if err != nil {
					return err
				}
				for lv, b := range budgets {
					cold, err := cs.sched(name, b)
					if err != nil {
						return err
					}
					if !warm[lv].Equal(cold) {
						if lv == 0 {
							return fmt.Errorf("%s item %d: a sweep's first level must be a cold solve", name, k)
						}
						diverged[k][a]++
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for a, name := range algs {
			got := 0
			for k := range diverged {
				got += diverged[k][a]
			}
			t.Logf("%s, %s: warm differs from cold in %d of %d cells", grid.name, name, got, grid.p.n*levels)
			if got != grid.want[a] {
				t.Errorf("%s, %s: %d diverging cells, pinned %d", grid.name, name, got, grid.want[a])
			}
		}
	}
}

func TestTableVIIAndFig15(t *testing.T) {
	rows, err := TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 6 budgets x {CG, gain3-wrf, gain3}
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Warm testbed replays the analytic schedule exactly.
		if math.Abs(r.MED-r.TestbedMED) > 1e-6 {
			t.Fatalf("%s@%v: testbed MED %v != analytic %v", r.Alg, r.Budget, r.TestbedMED, r.MED)
		}
		if r.NumVMs > 6 {
			t.Fatalf("%d VMs for 6 modules", r.NumVMs)
		}
	}
	pts := Fig15(rows)
	if len(pts) != 6 {
		t.Fatalf("%d Fig15 points", len(pts))
	}
	// At the highest budget CG must clearly beat GAIN3 (Fig. 15 right).
	lastIdx := len(pts) - 1
	if pts[lastIdx].CG >= pts[lastIdx].GAIN {
		t.Fatalf("CG %v not better than GAIN3 %v at top budget", pts[lastIdx].CG, pts[lastIdx].GAIN)
	}
}

func TestPublishedTableVIIShape(t *testing.T) {
	rows := PublishedTableVII()
	if len(rows) != 12 {
		t.Fatalf("%d published rows", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		if rows[i].MED >= rows[i+1].MED {
			t.Fatalf("published CG MED %v not below GAIN3 %v at B=%v",
				rows[i].MED, rows[i+1].MED, rows[i].Budget)
		}
	}
}

func TestAblationGrid(t *testing.T) {
	rows, err := Ablation(DefaultSeed, gen.ProblemSize{M: 15, E: 40, N: 5}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.AvgMED <= 0 {
			t.Fatalf("bad MED in %+v", r)
		}
		byName[r.Name] = r.AvgMED
	}
	// The full Critical-Greedy (critical + max-dT) must beat the GAIN3
	// baseline on average in this regime.
	if byName["critical-greedy"] > byName["gain3"] {
		t.Fatalf("critical-greedy %v worse than gain3 %v", byName["critical-greedy"], byName["gain3"])
	}
}

func TestSimValidationZeroError(t *testing.T) {
	rows, err := SimValidation(DefaultSeed, gen.ProblemSize{M: 12, E: 25, N: 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MakespanErr > 1e-6 || r.CostErr > 1e-6 {
			t.Fatalf("instance %d: analytic/simulator disagreement %+v", r.Instance, r)
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	var sb strings.Builder

	rowsII, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTableII(&sb, rowsII); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "MED") || !strings.Contains(sb.String(), "inf") {
		t.Fatalf("TableII render:\n%s", sb.String())
	}

	sb.Reset()
	pts, _ := Fig6()
	if err := RenderFig6(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Budget") {
		t.Fatal("Fig6 render missing header")
	}

	sb.Reset()
	rowsIV, err := TableIV(DefaultSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, render := range []func() error{
		func() error { return RenderTableIV(&sb, rowsIV) },
		func() error { return RenderFig8(&sb, rowsIV) },
	} {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(sb.String(), "(5, 6, 3)") {
		t.Fatalf("TableIV render:\n%s", sb.String())
	}

	sb.Reset()
	cells, err := Campaign(DefaultSeed, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderFig9(&sb, Fig9(cells)); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig10(&sb, Fig10(cells)); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig11(&sb, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Size\\Level") {
		t.Fatal("Fig11 render missing grid header")
	}

	sb.Reset()
	rowsVII, err := TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTableVII(&sb, rowsVII); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig15(&sb, Fig15(rowsVII)); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	abl, err := Ablation(DefaultSeed, gen.ProblemSize{M: 8, E: 14, N: 3}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderAblation(&sb, abl); err != nil {
		t.Fatal(err)
	}
	val, err := SimValidation(DefaultSeed, gen.ProblemSize{M: 8, E: 14, N: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderValidation(&sb, val); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dMakespan") {
		t.Fatal("validation render missing summary")
	}

	sb.Reset()
	rowsIII, err := TableIII(DefaultSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderTableIII(&sb, rowsIII); err != nil {
		t.Fatal(err)
	}
	fig7, err := Fig7(DefaultSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderFig7(&sb, fig7); err != nil {
		t.Fatal(err)
	}
}
