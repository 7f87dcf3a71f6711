package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

// genLibrary writes gen.Random workflows of the given sizes to temp
// JSON files and returns a Library naming them wf5, wf20, ... (the
// built-in "paper" catalog serves as the catalog side of every pair).
func genLibrary(t testing.TB, sizes []int) Library {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	lib := Library{Workflows: map[string]string{}}
	for _, modules := range sizes {
		w, err := gen.Random(rng, gen.Params{
			Modules: modules, Edges: modules * 3 / 2,
			WorkloadMin: 1000, WorkloadMax: 5000, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/wf%d.json", dir, modules)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lib.Workflows[fmt.Sprintf("wf%d", modules)] = path
	}
	return lib
}

// waitStaircase polls until the key's staircase is installed (builds run
// asynchronously on a worker after the triggering request was acked).
func waitStaircase(t *testing.T, s *Server, alg, wf, cat string) *staircase {
	t.Helper()
	c := s.Snapshot().cache
	if c == nil {
		t.Fatal("server has no cache")
	}
	slot := c.slot(alg, wf, cat)
	if slot == nil {
		t.Fatalf("no cache slot for (%s, %s, %s)", alg, wf, cat)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := slot.stair.Load(); st != nil {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("staircase for (%s, %s, %s) never installed", alg, wf, cat)
	return nil
}

// TestCacheThreeWayDifferential is the acceptance pin: for gen.Random
// workflows × algorithms × budget fractions both ON the staircase grid
// (dyadic, bit-exact hits) and OFF it (fixed and random fractions,
// resumed from the trail of the level below), with and without a
// simulated trace, the cached server, an uncached server, and direct
// sched.Run must agree on the schedule exactly and on makespan/cost to
// the bit (math.Float64bits); the cached and uncached response bodies,
// traces included, must be byte-identical. After install, every
// off-grid or simulate request counts one cache_resumes and every grid
// request without a trace one hit.
func TestCacheThreeWayDifferential(t *testing.T) {
	lib := genLibrary(t, []int{5, 20, 60})
	cached := testServer(t, Config{Workers: 2, Library: lib})
	uncached := testServer(t, Config{Workers: 2, Library: lib, Cache: CacheConfig{Disable: true}})
	if uncached.Snapshot().cache != nil {
		t.Fatal("Disable: true still built a cache")
	}
	ch, uh := cached.Handler(), uncached.Handler()

	gridFracs := []float64{0, 0.125, 0.25, 0.5, 0.875, 1}
	rng := rand.New(rand.NewSource(21))
	algs := []string{"critical-greedy", "critical-ratio", "gain1", "gain3"}

	for _, wfName := range []string{"wf5", "wf20", "wf60"} {
		snap := cached.Snapshot()
		w := snap.Workflows[wfName]
		m, cmin, cmax, ok := snap.Pair(wfName, "paper")
		if !ok {
			t.Fatalf("pair (%s, paper) missing", wfName)
		}
		for _, alg := range algs {
			// Trigger and await the staircase so grid fractions below are
			// served from the cache, not the direct path.
			url := fmt.Sprintf("/schedule?workflow=%s&catalog=paper&algorithm=%s&budget_fraction=0.5", wfName, alg)
			if rw, resp := postSchedule(t, ch, url, nil); resp == nil {
				t.Fatalf("%s/%s prime: status %d: %s", wfName, alg, rw.Code, rw.Body.Bytes())
			}
			st := waitStaircase(t, cached, alg, wfName, "paper")
			if st.st.Trails == nil {
				t.Fatalf("%s/%s: staircase kept no trails", wfName, alg)
			}

			offFracs := []float64{0.3, 0.7, rng.Float64(), rng.Float64(), rng.Float64()}
			for _, frac := range append(append([]float64(nil), gridFracs...), offFracs...) {
				budget := sched.BudgetAt(cmin, cmax, frac)
				_, onGrid := st.lookup(budget)
				if !onGrid && slices.Contains(gridFracs, frac) {
					t.Fatalf("%s/%s frac %v: dyadic fraction missing from staircase grid", wfName, alg, frac)
				}
				for _, simulate := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s frac %v simulate %v", wfName, alg, frac, simulate)
					hitsBefore, resumesBefore := snap.cache.hits.Load(), snap.cache.resumes.Load()
					url := fmt.Sprintf("/schedule?workflow=%s&catalog=paper&algorithm=%s&budget_fraction=%v&simulate=%v", wfName, alg, frac, simulate)
					rwC, got := postSchedule(t, ch, url, nil)
					if got == nil {
						t.Fatalf("%s cached: status %d: %s", label, rwC.Code, rwC.Body.Bytes())
					}
					hits, resumes := snap.cache.hits.Load()-hitsBefore, snap.cache.resumes.Load()-resumesBefore
					wantHits := int64(0)
					if onGrid && !simulate {
						wantHits = 1
					}
					if hits != wantHits || resumes != 1-wantHits {
						t.Fatalf("%s: %d hits and %d resumes, want %d and %d", label, hits, resumes, wantHits, 1-wantHits)
					}

					rwU, unc := postSchedule(t, uh, url, nil)
					if unc == nil {
						t.Fatalf("%s uncached: status %d: %s", label, rwU.Code, rwU.Body.Bytes())
					}
					if !bytes.Equal(rwC.Body.Bytes(), rwU.Body.Bytes()) {
						t.Fatalf("%s: cached and uncached responses differ\ncached:   %s\nuncached: %s", label, rwC.Body.Bytes(), rwU.Body.Bytes())
					}

					ref, err := sched.Get(alg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := sched.Run(ref, w, m, budget)
					if err != nil {
						t.Fatal(err)
					}
					if !workflow.Schedule(got.Schedule).Equal(want.Schedule) {
						t.Fatalf("%s: schedule %v, direct %v", label, got.Schedule, want.Schedule)
					}
					if math.Float64bits(got.Makespan) != math.Float64bits(want.MED) {
						t.Errorf("%s: makespan %v != direct %v", label, got.Makespan, want.MED)
					}
					if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
						t.Errorf("%s: cost %v != direct %v", label, got.Cost, want.Cost)
					}
					if math.Float64bits(got.Budget) != math.Float64bits(budget) {
						t.Errorf("%s: budget %v != BudgetAt %v", label, got.Budget, budget)
					}
					if simulate != (got.Trace != nil) {
						t.Errorf("%s: trace present = %v", label, got.Trace != nil)
					}
				}
			}
		}
	}
}

// TestCacheServesOptimalExactly is TestCacheThreeWayDifferential for the
// exact solver, which keeps no trails, on the smallest workflow: after
// its staircase is installed, a cached server, an uncached one and a
// fresh sched.Run must agree on every grid and off-grid budget, with and
// without a trace. Grid budgets are hits, and nothing resumes.
func TestCacheServesOptimalExactly(t *testing.T) {
	lib := genLibrary(t, []int{5})
	cached := testServer(t, Config{Workers: 1, Library: lib})
	uncached := testServer(t, Config{Workers: 1, Library: lib, Cache: CacheConfig{Disable: true}})
	ch, uh := cached.Handler(), uncached.Handler()
	const prime = "/schedule?workflow=wf5&catalog=paper&algorithm=optimal&budget_fraction=0.5"
	if rw, resp := postSchedule(t, ch, prime, nil); resp == nil {
		t.Fatalf("prime: status %d: %s", rw.Code, rw.Body.Bytes())
	}
	st := waitStaircase(t, cached, "optimal", "wf5", "paper")
	snap := cached.Snapshot()
	w := snap.Workflows["wf5"]
	m, cmin, cmax, ok := snap.Pair("wf5", "paper")
	if !ok {
		t.Fatal("pair (wf5, paper) missing")
	}
	for _, frac := range []float64{0, 0.125, 0.25, 0.3, 0.5, 0.7, 0.875, 1} {
		budget := sched.BudgetAt(cmin, cmax, frac)
		_, onGrid := st.lookup(budget)
		want, err := sched.Run(&sched.Optimal{}, w, m, budget)
		if err != nil {
			t.Fatal(err)
		}
		for _, simulate := range []bool{false, true} {
			label := fmt.Sprintf("frac %v simulate %v", frac, simulate)
			hitsBefore, resumesBefore := snap.cache.hits.Load(), snap.cache.resumes.Load()
			url := fmt.Sprintf("/schedule?workflow=wf5&catalog=paper&algorithm=optimal&budget_fraction=%v&simulate=%v", frac, simulate)
			rwC, got := postSchedule(t, ch, url, nil)
			if got == nil {
				t.Fatalf("%s cached: status %d: %s", label, rwC.Code, rwC.Body.Bytes())
			}
			wantHits := int64(0)
			if onGrid && !simulate {
				wantHits = 1
			}
			if hits, resumes := snap.cache.hits.Load()-hitsBefore, snap.cache.resumes.Load()-resumesBefore; hits != wantHits || resumes != 0 {
				t.Fatalf("%s: %d hits and %d resumes, want %d and 0", label, hits, resumes, wantHits)
			}
			rwU, _ := postSchedule(t, uh, url, nil)
			if !bytes.Equal(rwC.Body.Bytes(), rwU.Body.Bytes()) {
				t.Fatalf("%s: cached and uncached responses differ\ncached:   %s\nuncached: %s", label, rwC.Body.Bytes(), rwU.Body.Bytes())
			}
			if !workflow.Schedule(got.Schedule).Equal(want.Schedule) ||
				math.Float64bits(got.Makespan) != math.Float64bits(want.MED) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("%s: served %v (MED %v, cost %v), direct %v (MED %v, cost %v)",
					label, got.Schedule, got.Makespan, got.Cost, want.Schedule, want.MED, want.Cost)
			}
		}
	}
}

// TestCachedScheduleAllocs is the hit path's zero-alloc gate: once the
// staircase is installed, a warm in-process request at a grid budget
// performs no allocations at all — it never reaches the worker pool.
func TestCachedScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel operations")
	}
	s := testServer(t, Config{Workers: 1})
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	var res Result
	if err := s.Schedule(p, &res); err != nil { // arms the build
		t.Fatal(err)
	}
	waitStaircase(t, s, defaultAlgorithm, "example", "paper")
	c := s.Snapshot().cache
	for i := 0; i < 3; i++ { // warm the job pool and result buffers
		if err := s.Schedule(p, &res); err != nil {
			t.Fatal(err)
		}
	}
	hitsBefore := c.hits.Load()
	avg := testing.AllocsPerRun(100, func() {
		if err := s.Schedule(p, &res); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm cached Schedule allocates %v allocs/op, want 0", avg)
	}
	if hits := c.hits.Load() - hitsBefore; hits < 100 {
		t.Errorf("AllocsPerRun loop recorded %d cache hits, want >= 100 (requests not served from cache?)", hits)
	}
}

// TestResumedScheduleAllocs is the resume path's zero-alloc gate: once
// the staircase is installed, a warm in-process request between grid
// levels carries the trail of the level below to the worker, which
// resumes the solve from it without allocating.
func TestResumedScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel operations")
	}
	s := testServer(t, Config{Workers: 1, Library: genLibrary(t, []int{60})})
	var res Result
	for _, alg := range []string{"critical-greedy", "gain3"} {
		p := Params{WorkflowRef: "wf60", CatalogRef: "paper", UseFraction: true, Fraction: 0.5, Algorithm: alg}
		if err := s.Schedule(p, &res); err != nil { // arms the build
			t.Fatal(err)
		}
		waitStaircase(t, s, alg, "wf60", "paper")
	}
	c := s.Snapshot().cache
	var ps []Params
	for _, alg := range []string{"critical-greedy", "gain3"} {
		for _, frac := range []float64{0.05, 0.3, 0.61, 0.9} {
			ps = append(ps, Params{WorkflowRef: "wf60", CatalogRef: "paper", UseFraction: true, Fraction: frac, Algorithm: alg})
		}
	}
	next := 0
	request := func() {
		if err := s.Schedule(ps[next%len(ps)], &res); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range ps { // warm the job pool, engines and result buffers
		request()
	}
	resumesBefore := c.resumes.Load()
	if avg := testing.AllocsPerRun(100, request); avg != 0 {
		t.Errorf("warm resumed Schedule allocates %v allocs/op, want 0", avg)
	}
	if resumes := c.resumes.Load() - resumesBefore; resumes < 100 {
		t.Errorf("AllocsPerRun loop recorded %d resumes, want >= 100 (requests not resumed?)", resumes)
	}
}

// TestCacheConcurrentResume has several workers resume from one
// staircase's trails at once, for critical-greedy and gain3, at random
// budgets between grid levels: every answer must equal direct sched.Run.
// Trails are shared read-only across workers; CI repeats this under
// -race.
func TestCacheConcurrentResume(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64, Library: genLibrary(t, []int{60})})
	snap := s.Snapshot()
	w := snap.Workflows["wf60"]
	m, cmin, cmax, _ := snap.Pair("wf60", "paper")
	algs := []string{"critical-greedy", "gain3"}
	var res Result
	for _, alg := range algs {
		if err := s.Schedule(Params{WorkflowRef: "wf60", CatalogRef: "paper", UseFraction: true, Fraction: 0.5, Algorithm: alg}, &res); err != nil {
			t.Fatal(err)
		}
		waitStaircase(t, s, alg, "wf60", "paper")
	}
	type want struct {
		p   Params
		run *sched.Result
	}
	rng := rand.New(rand.NewSource(6))
	var wants []want
	for k := 0; k < 32; k++ {
		alg := algs[k%len(algs)]
		p := Params{WorkflowRef: "wf60", CatalogRef: "paper", UseFraction: true, Fraction: rng.Float64(), Algorithm: alg}
		ref, err := sched.Get(alg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sched.Run(ref, w, m, sched.BudgetAt(cmin, cmax, p.Fraction))
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{p, r})
	}
	resumesBefore := snap.cache.resumes.Load()
	const clients, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res Result
			for i := 0; i < rounds*len(wants); i++ {
				wt := wants[(i+5*c)%len(wants)]
				err := s.Schedule(wt.p, &res)
				if err == ErrBusy {
					i--
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if !workflow.Schedule(res.Schedule).Equal(wt.run.Schedule) ||
					math.Float64bits(res.Makespan) != math.Float64bits(wt.run.MED) {
					errs <- fmt.Errorf("client %d, %s at fraction %v: got %v (MED %v), want %v (MED %v)",
						c, wt.p.Algorithm, wt.p.Fraction, res.Schedule, res.Makespan, wt.run.Schedule, wt.run.MED)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if resumes := snap.cache.resumes.Load() - resumesBefore; resumes != clients*rounds*int64(len(wants)) {
		t.Errorf("%d resumes, want %d (every request is off the grid)", resumes, clients*rounds*len(wants))
	}
}

// TestCacheSingleflight floods a cold slot with concurrent grid-budget
// requests: every request must succeed, and the thundering herd must
// produce exactly one staircase build.
func TestCacheSingleflight(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64})
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res Result
			p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.25}
			for i := 0; i < 20; i++ {
				if err := s.Schedule(p, &res); err != nil && err != ErrBusy {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitStaircase(t, s, defaultAlgorithm, "example", "paper")
	if builds := s.Snapshot().cache.builds.Load(); builds != 1 {
		t.Errorf("herd produced %d builds, want 1 (singleflight)", builds)
	}
}

// TestCacheEviction pins the memory cap: with MaxBytes far below one
// staircase, every install evicts the previously resident staircase
// (LRU, deterministic) and the byte accounting stays consistent.
func TestCacheEviction(t *testing.T) {
	s := testServer(t, Config{Workers: 1, Cache: CacheConfig{MaxBytes: 1}})
	c := s.Snapshot().cache
	var res Result
	algs := []string{"critical-greedy", "critical-ratio", "gain1"}
	for i, alg := range algs {
		p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5, Algorithm: alg}
		if err := s.Schedule(p, &res); err != nil {
			t.Fatal(err)
		}
		st := waitStaircase(t, s, alg, "example", "paper")
		if got := c.staircases(); got != 1 {
			t.Fatalf("after install %d: %d staircases resident, want 1 (cap evicts the rest)", i+1, got)
		}
		if got := c.bytes.Load(); got != st.bytes {
			t.Fatalf("after install %d: resident bytes %d != survivor's %d", i+1, got, st.bytes)
		}
	}
	if ev := c.evictions.Load(); ev != int64(len(algs)-1) {
		t.Errorf("evictions = %d, want %d", ev, len(algs)-1)
	}
	// The evicted slot's latch was released with it: a fresh miss on the
	// first algorithm must be able to rebuild.
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5, Algorithm: algs[0]}
	if err := s.Schedule(p, &res); err != nil {
		t.Fatal(err)
	}
	waitStaircase(t, s, algs[0], "example", "paper")
	if builds := c.builds.Load(); builds != int64(len(algs)+1) {
		t.Errorf("builds = %d after re-miss, want %d", builds, len(algs)+1)
	}
}

// TestCacheReloadUnderLoad races POST /reload against cached traffic:
// requests admitted on the old snapshot keep its cache, requests on the
// new snapshot rebuild fresh staircases, and nothing 5xxs. CI runs this
// under -race.
func TestCacheReloadUnderLoad(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64})
	h := s.Handler()

	// Pre-warm version 1's staircase so the load starts on the hit path.
	var res Result
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	if err := s.Schedule(p, &res); err != nil {
		t.Fatal(err)
	}
	waitStaircase(t, s, defaultAlgorithm, "example", "paper")
	oldCache := s.Snapshot().cache

	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c == 0 && i%10 == 5 {
					rw := httptest.NewRecorder()
					h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/reload", nil))
					if rw.Code != http.StatusOK {
						errs <- fmt.Errorf("reload: status %d: %s", rw.Code, rw.Body.Bytes())
						return
					}
					continue
				}
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost,
					"/schedule?workflow=example&catalog=paper&budget_fraction=0.5", nil))
				switch rw.Code {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					i--
				default:
					errs <- fmt.Errorf("client %d req %d: status %d: %s", c, i, rw.Code, rw.Body.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Snapshot().cache == oldCache {
		t.Error("reload kept the old snapshot's cache")
	}
	// The superseded cache still answers lookups for anyone who pinned it.
	if slot := oldCache.slot(defaultAlgorithm, "example", "paper"); slot.stair.Load() == nil {
		t.Error("old snapshot's staircase vanished after reload")
	}
}

// TestStatsEndpoint checks the /stats counters across the cache
// lifecycle: cold, after a miss+build, after a hit, and after a reload
// (fresh empty cache).
func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	h := s.Handler()
	getStats := func() statsResponse {
		t.Helper()
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("stats: status %d: %s", rw.Code, rw.Body.Bytes())
		}
		var st statsResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats body: %v\n%s", err, rw.Body.Bytes())
		}
		return st
	}

	st := getStats()
	if !st.CacheEnabled || st.CacheHits != 0 || st.CacheMisses != 0 || st.Staircases != 0 || st.CacheBytes != 0 {
		t.Fatalf("cold stats: %+v", st)
	}
	if st.SnapshotVersion != 1 || st.Workers != 2 || st.QueueDepth != 8 {
		t.Fatalf("cold stats shape: %+v", st)
	}
	if st.BusyFraction < 0 || st.BusyFraction > 1 {
		t.Fatalf("busy fraction %v out of [0,1]", st.BusyFraction)
	}

	var res Result
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	if err := s.Schedule(p, &res); err != nil {
		t.Fatal(err)
	}
	waitStaircase(t, s, defaultAlgorithm, "example", "paper")
	if err := s.Schedule(p, &res); err != nil {
		t.Fatal(err)
	}
	st = getStats()
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.CacheBuilds != 1 || st.Staircases != 1 || st.CacheBytes <= 0 {
		t.Fatalf("warm stats: %+v", st)
	}
	off := p
	off.Fraction = 0.3
	if err := s.Schedule(off, &res); err != nil {
		t.Fatal(err)
	}
	st = getStats()
	if st.CacheMisses != 2 || st.CacheHits != 1 || st.CacheResumes != 1 || st.WorkerPanics != 0 {
		t.Fatalf("stats after an off-grid request: %+v", st)
	}

	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	st = getStats()
	if st.SnapshotVersion != 2 || st.CacheHits != 0 || st.Staircases != 0 {
		t.Fatalf("post-reload stats not reset: %+v", st)
	}
}

// TestCacheDisabledStats: with the cache off, requests serve normally
// and /stats reports the cache disabled.
func TestCacheDisabledStats(t *testing.T) {
	s := testServer(t, Config{Workers: 1, Cache: CacheConfig{Disable: true}})
	var res Result
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	for i := 0; i < 3; i++ {
		if err := s.Schedule(p, &res); err != nil {
			t.Fatal(err)
		}
	}
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.CacheEnabled || st.CacheHits != 0 || st.Staircases != 0 {
		t.Fatalf("disabled-cache stats: %+v", st)
	}
}

// TestCacheSimulateBypass: simulate requests carry a trace the cache
// does not store, so they are never answered from it — even at grid
// budgets with a staircase installed — and count as neither hits nor
// misses. They do carry the grid level's trail to the worker (one
// cache_resumes), which resumes the solve and replays the trace.
func TestCacheSimulateBypass(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	var res Result
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	if err := s.Schedule(p, &res); err != nil {
		t.Fatal(err)
	}
	waitStaircase(t, s, defaultAlgorithm, "example", "paper")
	c := s.Snapshot().cache
	hits, misses, resumes := c.hits.Load(), c.misses.Load(), c.resumes.Load()
	sim := p
	sim.Simulate = true
	if err := s.Schedule(sim, &res); err != nil {
		t.Fatal(err)
	}
	if c.hits.Load() != hits || c.misses.Load() != misses {
		t.Error("simulate request counted as a cache hit or miss")
	}
	if c.resumes.Load() != resumes+1 {
		t.Error("simulate request at a grid budget did not resume from the level's trail")
	}
	if len(res.Trace.Modules) != len(res.Schedule) {
		t.Errorf("simulate trace has %d modules, schedule %d", len(res.Trace.Modules), len(res.Schedule))
	}
}

// TestStaircaseLookup pins the lookup dispatch and trailBelow rely on,
// on a served staircase and on the one-level staircase of a zero-width
// budget range: every grid budget hits its own level, and every other
// budget, one ulp off a grid point included, misses at the first level
// above it: 0 below the range, the level count above it.
func TestStaircaseLookup(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	snap := s.Snapshot()
	m, cmin, cmax, _ := snap.Pair("example", "paper")
	var res Result
	if err := s.Schedule(Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}, &res); err != nil {
		t.Fatal(err)
	}
	served := waitStaircase(t, s, defaultAlgorithm, "example", "paper")
	zw, err := sched.SweepGrid(sched.CriticalGreedy(), snap.Workflows["example"], m, cmin, cmin, sched.GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if zw.Levels() != 1 {
		t.Fatalf("zero-width range: %d levels, want 1", zw.Levels())
	}

	rng := rand.New(rand.NewSource(99))
	for _, st := range []*staircase{served, {st: zw}} {
		budgets := st.st.Budgets
		n := len(budgets)
		miss := func(b float64, want int) {
			t.Helper()
			if k, hit := st.lookup(b); hit || k != want {
				t.Fatalf("%d levels: lookup(%v) = (%d, %v), want (%d, false)", n, b, k, hit, want)
			}
		}
		for k, b := range budgets {
			if got, hit := st.lookup(b); !hit || got != k {
				t.Fatalf("%d levels: lookup(budgets[%d]) = (%d, %v), want (%d, true)", n, k, got, hit, k)
			}
			miss(math.Nextafter(b, math.Inf(-1)), k)
			miss(math.Nextafter(b, math.Inf(1)), k+1)
		}
		miss(budgets[0]-1, 0)
		miss(budgets[n-1]+1, n)
		for trial := 0; trial < 100; trial++ {
			b := cmin + rng.Float64()*(cmax-cmin)
			k, hit := st.lookup(b)
			if hit {
				if budgets[k] != b {
					t.Fatalf("lookup(%v) claimed a hit on budgets[%d] = %v", b, k, budgets[k])
				}
				continue
			}
			if (k > 0 && budgets[k-1] >= b) || (k < n && budgets[k] <= b) {
				t.Fatalf("lookup(%v) missed at %d, not the first level above it", b, k)
			}
		}
	}
	if tr := served.trailBelow(served.lookup(served.st.Budgets[0] - 1)); tr != nil {
		t.Fatal("a budget below the grid resumed from a trail")
	}
}

// TestDispatchOffGridFallThrough: absolute budgets that are not grid
// points must take the direct path bit-identically whether or not a
// staircase exists.
func TestDispatchOffGridFallThrough(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	snap := s.Snapshot()
	_, cmin, cmax, _ := snap.Pair("example", "paper")
	var res Result
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	if err := s.Schedule(p, &res); err != nil {
		t.Fatal(err)
	}
	st := waitStaircase(t, s, defaultAlgorithm, "example", "paper")

	offBudget := math.Nextafter(sched.BudgetAt(cmin, cmax, 0.5), cmax)
	if _, hit := st.lookup(offBudget); hit {
		t.Fatal("one-ulp-off budget unexpectedly on the grid")
	}
	misses := snap.cache.misses.Load()
	if err := s.Schedule(Params{WorkflowRef: "example", CatalogRef: "paper", Budget: offBudget}, &res); err != nil {
		t.Fatal(err)
	}
	if snap.cache.misses.Load() != misses+1 {
		t.Error("off-grid budget did not count as a miss")
	}
	ref, err := sched.Get(defaultAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.Workflows["example"]
	m, _, _, _ := snap.Pair("example", "paper")
	want, err := sched.Run(ref, w, m, offBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !workflow.Schedule(res.Schedule).Equal(want.Schedule) ||
		math.Float64bits(res.Makespan) != math.Float64bits(want.MED) ||
		math.Float64bits(res.Cost) != math.Float64bits(want.Cost) {
		t.Errorf("off-grid fall-through diverged: got (%v, %v, %v), want (%v, %v, %v)",
			res.Schedule, res.Makespan, res.Cost, want.Schedule, want.MED, want.Cost)
	}
}
