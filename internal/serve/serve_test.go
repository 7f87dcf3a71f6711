package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/workflow"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postSchedule(t *testing.T, h http.Handler, url string, body []byte) (*httptest.ResponseRecorder, *scheduleResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		return rw, nil
	}
	var resp scheduleResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, rw.Body.Bytes())
	}
	return rw, &resp
}

func checkScheduleResponse(t *testing.T, resp *scheduleResponse) {
	t.Helper()
	w, cat := workflow.PaperExample()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := w.Evaluate(m, resp.Schedule, nil)
	if err != nil {
		t.Fatalf("served schedule invalid: %v", err)
	}
	if ev.Cost != resp.Cost || ev.Makespan != resp.Makespan {
		t.Errorf("response (makespan %v, cost %v) != evaluation (%v, %v)",
			resp.Makespan, resp.Cost, ev.Makespan, ev.Cost)
	}
	if resp.Cost > resp.Budget+1e-9 {
		t.Errorf("cost %v exceeds budget %v", resp.Cost, resp.Budget)
	}
}

func TestScheduleRefsJSON(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	body, _ := json.Marshal(map[string]any{
		"workflow_ref": "example", "catalog_ref": "paper", "budget_fraction": 0.5,
	})
	rw, resp := postSchedule(t, s.Handler(), "/schedule", body)
	if resp == nil {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
	}
	if resp.SnapshotVersion != 1 || resp.Algorithm != defaultAlgorithm {
		t.Errorf("got version %d alg %q", resp.SnapshotVersion, resp.Algorithm)
	}
	checkScheduleResponse(t, resp)
}

func TestScheduleInlineJSON(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	w, cat := workflow.PaperExample()
	body, err := json.Marshal(map[string]any{
		"workflow": w, "catalog": cat, "budget_fraction": 1.0, "algorithm": "critical-greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	rw, resp := postSchedule(t, s.Handler(), "/schedule", body)
	if resp == nil {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
	}
	checkScheduleResponse(t, resp)
}

func TestScheduleJSONWithBOM(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	body, _ := json.Marshal(map[string]any{
		"workflow_ref": "example", "catalog_ref": "paper", "budget_fraction": 0.5,
	})
	bom := append([]byte("\xef\xbb\xbf  "), body...)
	rw, resp := postSchedule(t, s.Handler(), "/schedule", bom)
	if resp == nil {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
	}
	checkScheduleResponse(t, resp)
}

func TestScheduleQueryOnly(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	rw, resp := postSchedule(t, s.Handler(),
		"/schedule?workflow=example&catalog=paper&budget_fraction=0.25&simulate=true&boot_time=0.05", nil)
	if resp == nil {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
	}
	checkScheduleResponse(t, resp)
	if resp.Trace == nil {
		t.Fatal("simulate=true returned no trace")
	}
	if len(resp.Trace.Modules) != len(resp.Schedule) {
		t.Errorf("trace has %d modules, schedule %d", len(resp.Trace.Modules), len(resp.Schedule))
	}
	if resp.Trace.Makespan < resp.Makespan {
		t.Errorf("simulated makespan %v below analytic %v with boot time", resp.Trace.Makespan, resp.Makespan)
	}
}

// containerBody encodes one (workflow [, catalog]) record as a binary
// container request body.
func containerBody(t testing.TB, w *workflow.Workflow, cat cloud.Catalog) []byte {
	t.Helper()
	var b encoding.RecordBuilder
	b.Begin()
	if err := b.Workflow(w); err != nil {
		t.Fatal(err)
	}
	if cat != nil {
		if err := b.Catalog(cat); err != nil {
			t.Fatal(err)
		}
	}
	out := encoding.AppendHeader(nil, 1)
	out, err := b.AppendRecord(out, false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScheduleContainer(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	w, cat := workflow.PaperExample()

	t.Run("inline catalog chunk", func(t *testing.T) {
		rw, resp := postSchedule(t, s.Handler(), "/schedule?budget_fraction=0.7", containerBody(t, w, cat))
		if resp == nil {
			t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
		}
		checkScheduleResponse(t, resp)
	})
	t.Run("catalog by ref", func(t *testing.T) {
		rw, resp := postSchedule(t, s.Handler(), "/schedule?catalog=paper&budget_fraction=0.7", containerBody(t, w, nil))
		if resp == nil {
			t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
		}
		checkScheduleResponse(t, resp)
	})
}

func TestScheduleErrorStatuses(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	w, cat := workflow.PaperExample()
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	cmin, _ := m.BudgetRange(w)

	cases := []struct {
		name   string
		method string
		url    string
		body   []byte
		status int
	}{
		{"no budget", "POST", "/schedule?workflow=example&catalog=paper", nil, 400},
		{"unknown workflow ref", "POST", "/schedule?workflow=nope&catalog=paper&budget=100", nil, 400},
		{"unknown catalog ref", "POST", "/schedule?workflow=example&catalog=nope&budget=100", nil, 400},
		{"missing catalog", "POST", "/schedule?workflow=example&budget=100", nil, 400},
		{"unknown algorithm", "POST", "/schedule?workflow=example&catalog=paper&budget=100&algorithm=nope", nil, 400},
		{"bad fraction", "POST", "/schedule?workflow=example&catalog=paper&budget_fraction=1.5", nil, 400},
		{"negative budget", "POST", "/schedule?workflow=example&catalog=paper&budget=-1", nil, 400},
		{"bad float", "POST", "/schedule?workflow=example&catalog=paper&budget=abc", nil, 400},
		{"bad simulate", "POST", "/schedule?workflow=example&catalog=paper&budget=100&simulate=maybe", nil, 400},
		{"negative transfer_slots", "POST", "/schedule?workflow=example&catalog=paper&budget=57&simulate=true&bandwidth=1&transfer_slots=-1", nil, 400},
		{"negative transfer_slots in the envelope", "POST", "/schedule", []byte(negativeSlotsBody), 400},
		{"malformed JSON", "POST", "/schedule", []byte(`{"workflow_ref":`), 400},
		{"bad inline workflow", "POST", "/schedule?budget=100", []byte(`{"workflow":{"modules":[]},"catalog_ref":"paper"}`), 400},
		{"truncated magic", "POST", "/schedule?budget=100", []byte("MED"), 400},
		{"container wrong chunk", "POST", "/schedule?catalog=paper&budget=100", infoOnlyContainer(t), 400},
		{"infeasible budget", "POST", fmt.Sprintf("/schedule?workflow=example&catalog=paper&budget=%g", cmin/2), nil, 422},
		{"method not allowed", "GET", "/schedule?workflow=example&catalog=paper&budget=100", nil, 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.url, bytes.NewReader(tc.body))
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, req)
			if rw.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rw.Code, tc.status, rw.Body.Bytes())
			}
			var e errorResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body not {\"error\": ...}: %s", rw.Body.Bytes())
			}
		})
	}

	// The in-process entry point shares the HTTP paths' checks.
	p := Params{WorkflowRef: "example", CatalogRef: "paper", Budget: 57, Simulate: true, Bandwidth: 1, TransferSlots: -1}
	if err := s.Schedule(p, &Result{}); !errors.Is(err, errBadParam) {
		t.Fatalf("in-process Schedule with transfer_slots -1 = %v, want errBadParam", err)
	}
}

// negativeSlotsBody asks for a simulated trace with a negative
// transfer_slots in the JSON envelope.
const negativeSlotsBody = `{"workflow_ref":"example","catalog_ref":"paper","budget":57,"simulate":true,"bandwidth":1,"transfer_slots":-1}`

// infoOnlyContainer builds a container whose only record carries an
// instance-info chunk and no workflow.
func infoOnlyContainer(t *testing.T) []byte {
	t.Helper()
	var b encoding.RecordBuilder
	b.Begin()
	b.InstanceInfo(encoding.InstanceInfo{Seed: 1})
	out := encoding.AppendHeader(nil, 1)
	out, err := b.AppendRecord(out, false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackpressure fills the admission queue of a server whose workers
// never started, so a request meets deterministic backpressure.
func TestBackpressure(t *testing.T) {
	snap, err := buildSnapshot(Library{}, 1, CacheConfig{}, intoSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{maxBatch: 1, queue: make(chan *job, 1), algOK: intoSchedulers()}
	s.snap.Store(snap)
	s.jobs.New = func() any { return newJob() }
	s.scratch.New = func() any { return newDecodeScratch() }
	s.queue <- newJob() // occupy the only slot

	if err := s.Schedule(Params{WorkflowRef: "example", CatalogRef: "paper", Budget: 100}, &Result{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("Schedule on full queue = %v, want ErrBusy", err)
	}

	req := httptest.NewRequest(http.MethodPost, "/schedule?workflow=example&catalog=paper&budget=100", nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rw.Code, rw.Body.Bytes())
	}
	if rw.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestClosedServer(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	s.Close()
	s.Close() // idempotent
	err := s.Schedule(Params{WorkflowRef: "example", CatalogRef: "paper", Budget: 100}, &Result{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Schedule after Close = %v, want ErrClosed", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/schedule?workflow=example&catalog=paper&budget=100", nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rw.Code)
	}
}

func TestHealthLibraryReload(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()

	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health healthResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &health); err != nil || health.SnapshotVersion != 1 || health.Status != "ok" {
		t.Fatalf("healthz: %s (err %v)", rw.Body.Bytes(), err)
	}

	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/library", nil))
	var lib libraryResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &lib); err != nil {
		t.Fatal(err)
	}
	if len(lib.Catalogs) != 1 || lib.Catalogs[0] != "paper" || len(lib.Workflows) != 1 || lib.Workflows[0] != "example" {
		t.Errorf("library lists %v / %v", lib.Catalogs, lib.Workflows)
	}
	found := false
	for _, a := range lib.Algorithms {
		if a == defaultAlgorithm {
			found = true
		}
	}
	if !found {
		t.Errorf("algorithms %v missing %s", lib.Algorithms, defaultAlgorithm)
	}

	// Reload bumps the version; the previously pinned snapshot stays
	// fully usable.
	old := s.Snapshot()
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if err := json.Unmarshal(rw.Body.Bytes(), &health); err != nil || health.SnapshotVersion != 2 {
		t.Fatalf("reload: %s (err %v)", rw.Body.Bytes(), err)
	}
	if s.Snapshot().Version != 2 || s.Snapshot() == old {
		t.Error("reload did not publish a new snapshot")
	}
	if _, _, _, ok := old.Pair("example", "paper"); !ok {
		t.Error("old snapshot lost its pairs after reload")
	}
	_, resp := postSchedule(t, h, "/schedule?workflow=example&catalog=paper&budget_fraction=0.5", nil)
	if resp == nil || resp.SnapshotVersion != 2 {
		t.Fatalf("post-reload request did not pin version 2: %+v", resp)
	}
}

func TestReloadFailureKeepsSnapshot(t *testing.T) {
	w, _ := workflow.PaperExample()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/wf.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Workers: 1,
		Library: Library{Workflows: map[string]string{"disk": path}}})
	old := s.Snapshot()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); err == nil {
		t.Fatal("Reload with a vanished source succeeded")
	}
	if s.Snapshot() != old {
		t.Error("failed reload replaced the snapshot")
	}
}

func TestNewFailsOnBadLibrary(t *testing.T) {
	_, err := New(Config{Library: Library{Catalogs: map[string]string{"bad": "/nonexistent.json"}}})
	if err == nil {
		t.Fatal("New with unreadable catalog source succeeded")
	}
}

// TestScheduleAllocs is the zero-alloc acceptance gate: a warm
// in-process request over a named pair — admission, cross-worker round
// trip, schedule, makespan, response fill — performs no allocations.
// The staircase cache is disabled, as in BenchmarkServeSchedule, so
// every request reaches a worker; the hit path has its own pin
// (TestCachedScheduleAllocs).
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel operations")
	}
	s := testServer(t, Config{Workers: 1, Cache: CacheConfig{Disable: true}})
	if s.Snapshot().cache != nil {
		t.Fatal("Cache.Disable left a cache on the snapshot; requests could skip the worker")
	}
	p := Params{WorkflowRef: "example", CatalogRef: "paper", UseFraction: true, Fraction: 0.5}
	var res Result
	for i := 0; i < 3; i++ { // warm pools, engines, timing
		if err := s.Schedule(p, &res); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := s.Schedule(p, &res); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm Schedule allocates %v allocs/op, want 0", avg)
	}
}

// TestDifferentialHTTP cross-checks the full HTTP path against direct
// scheduling: for generated workflows × budget fractions × algorithms,
// the served schedule must be identical and makespan/cost bit-equal.
func TestDifferentialHTTP(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	h := s.Handler()
	_, cat := workflow.PaperExample()
	rng := rand.New(rand.NewSource(8))

	algs := []string{"critical-greedy", "critical-ratio", "gain1"}
	for _, a := range algs {
		if !s.algOK[a] {
			t.Fatalf("algorithm %s not servable", a)
		}
	}

	for _, modules := range []int{5, 20, 60} {
		w, err := gen.Random(rng, gen.Params{
			Modules: modules, Edges: modules * 3 / 2,
			WorkloadMin: 1000, WorkloadMax: 5000, AddEntryExit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
		if err != nil {
			t.Fatal(err)
		}
		m.BuildOptions()
		cmin, cmax := m.BudgetRange(w)
		for _, frac := range []float64{0, 0.4, 1} {
			budget := cmin + frac*(cmax-cmin)
			for _, alg := range algs {
				body, err := json.Marshal(map[string]any{
					"workflow": w, "catalog": cat, "budget": budget, "algorithm": alg,
				})
				if err != nil {
					t.Fatal(err)
				}
				rw, resp := postSchedule(t, h, "/schedule", body)
				if resp == nil {
					t.Fatalf("m=%d frac=%v alg=%s: status %d: %s", modules, frac, alg, rw.Code, rw.Body.Bytes())
				}

				ref, err := sched.Get(alg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sched.Run(ref, w, m, budget)
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Schedule) != len(want.Schedule) {
					t.Fatalf("m=%d frac=%v alg=%s: schedule length %d != %d", modules, frac, alg, len(resp.Schedule), len(want.Schedule))
				}
				for i := range want.Schedule {
					if resp.Schedule[i] != want.Schedule[i] {
						t.Fatalf("m=%d frac=%v alg=%s: schedule[%d] = %d, want %d", modules, frac, alg, i, resp.Schedule[i], want.Schedule[i])
					}
				}
				if math.Float64bits(resp.Makespan) != math.Float64bits(want.MED) {
					t.Errorf("m=%d frac=%v alg=%s: makespan %v != %v", modules, frac, alg, resp.Makespan, want.MED)
				}
				if math.Float64bits(resp.Cost) != math.Float64bits(want.Cost) {
					t.Errorf("m=%d frac=%v alg=%s: cost %v != %v", modules, frac, alg, resp.Cost, want.Cost)
				}
			}
		}
	}
}

// TestConcurrentMixedLoad hammers the server from many goroutines with
// a mix of named-pair, inline, and simulated requests plus snapshot
// reloads. Run under -race in CI; every request must succeed (the queue
// is sized to the offered load, so 429 is a failure here).
func TestConcurrentMixedLoad(t *testing.T) {
	s := testServer(t, Config{Workers: 4, QueueDepth: 64, MaxBatch: 8})
	h := s.Handler()
	w, cat := workflow.PaperExample()
	inline, err := json.Marshal(map[string]any{"workflow": w, "catalog": cat, "budget_fraction": 0.6})
	if err != nil {
		t.Fatal(err)
	}
	cont := containerBody(t, w, cat)

	const clients, perClient = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var rw *httptest.ResponseRecorder
				switch i % 4 {
				case 0:
					rw = httptest.NewRecorder()
					h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost,
						"/schedule?workflow=example&catalog=paper&budget_fraction=0.5", nil))
				case 1:
					rw = httptest.NewRecorder()
					h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(inline)))
				case 2:
					rw = httptest.NewRecorder()
					h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost,
						"/schedule?budget_fraction=0.3&simulate=true", bytes.NewReader(cont)))
				case 3:
					if c == 0 {
						rw = httptest.NewRecorder()
						h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/reload", nil))
					} else {
						rw = httptest.NewRecorder()
						h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
					}
				}
				if rw.Code != http.StatusOK && rw.Code != http.StatusTooManyRequests {
					errs <- fmt.Errorf("client %d req %d: status %d: %s", c, i, rw.Code, rw.Body.Bytes())
					return
				}
				if rw.Code == http.StatusTooManyRequests {
					i-- // closed-loop retry
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorkerPanicAnswers500 crafts a job whose workflow is smaller than
// its matrices, so the solver indexes past the workflow and panics
// inside the worker. The job answers 500 with ErrWorkerPanic and the
// build latch its miss armed is released. A staircase build crafted the
// same way panics too: it is recovered, releases its latch and drops
// the worker's engines. /stats counts both panics, and the server keeps
// serving: the next request is answered exactly and its miss builds the
// staircase.
func TestWorkerPanicAnswers500(t *testing.T) {
	s := testServer(t, Config{Workers: 1, Library: genLibrary(t, []int{20})})
	snap := s.Snapshot()
	m, cmin, cmax, _ := snap.Pair("wf20", "paper")
	j := newJob()
	j.reset()
	j.snap, j.alg, j.budget = snap, defaultAlgorithm, cmax
	j.w, j.m = snap.Workflows["example"], m
	j.wfRef, j.catRef, j.cacheable = "wf20", "paper", true
	err := s.dispatch(j)
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("mismatched job returned %v, want ErrWorkerPanic", err)
	}
	if got := statusOf(err); got != http.StatusInternalServerError {
		t.Fatalf("worker panic maps to status %d, want 500", got)
	}
	slot := snap.cache.slot(defaultAlgorithm, "wf20", "paper")
	for deadline := time.Now().Add(10 * time.Second); slot.building.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("build latch still held after the job's panic")
		}
	}

	// The build path, on a worker of the test's own.
	var w worker
	before, err := w.run.Scheduler(defaultAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	slot.building.Store(true)
	s.buildJob(&w, buildReq{slot: slot, cache: snap.cache, snap: snap, w: snap.Workflows["example"],
		alg: defaultAlgorithm, wfRef: "wf20", catRef: "paper"})
	if slot.building.Load() || slot.stair.Load() != nil {
		t.Fatal("the panicking build kept its latch or installed a staircase")
	}
	if after, _ := w.run.Scheduler(defaultAlgorithm); after == before {
		t.Fatal("the worker kept its scheduler engines after a panic")
	}
	if got := s.panics.Load(); got != 2 {
		t.Fatalf("%d panics recovered, want 2", got)
	}

	rw, resp := postSchedule(t, s.Handler(), "/schedule?workflow=wf20&catalog=paper&budget_fraction=0.4", nil)
	if resp == nil {
		t.Fatalf("request after the panics: status %d: %s", rw.Code, rw.Body.Bytes())
	}
	ref, err := sched.Get(defaultAlgorithm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.Run(ref, snap.Workflows["wf20"], m, sched.BudgetAt(cmin, cmax, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if !workflow.Schedule(resp.Schedule).Equal(want.Schedule) || math.Float64bits(resp.Makespan) != math.Float64bits(want.MED) {
		t.Fatalf("after the panics: got %v (MED %v), want %v (MED %v)", resp.Schedule, resp.Makespan, want.Schedule, want.MED)
	}
	waitStaircase(t, s, defaultAlgorithm, "wf20", "paper")

	rw = httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.WorkerPanics != 2 {
		t.Fatalf("/stats worker_panics = %d, want 2", st.WorkerPanics)
	}
}

// TestScheduleBodyCap pins the request body cap on both sides: a JSON
// envelope padded with whitespace to exactly maxRequestBody bytes is
// read in full and answered, one byte more answers 413 with the JSON
// error before the request reaches the cache or a worker.
func TestScheduleBodyCap(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	body := func(size int) []byte {
		head := []byte(`{"workflow_ref": "example",`)
		tail := []byte(`"catalog_ref": "paper", "budget_fraction": 0.3}`)
		b := append(head, bytes.Repeat([]byte(" "), size-len(head)-len(tail))...)
		return append(b, tail...)
	}
	c := s.Snapshot().cache
	rw, resp := postSchedule(t, h, "/schedule", body(maxRequestBody))
	if resp == nil {
		t.Fatalf("body of exactly the cap: status %d: %s", rw.Code, rw.Body.Bytes())
	}
	misses := c.misses.Load()
	rw, _ = postSchedule(t, h, "/schedule", body(maxRequestBody+1))
	if rw.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the cap: status %d, want 413: %s", rw.Code, rw.Body.Bytes())
	}
	var e errorResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("413 body is not the JSON error: %q (%v)", rw.Body.Bytes(), err)
	}
	if c.misses.Load() != misses {
		t.Fatal("an over-cap body reached the cache")
	}
}

// TestInlineCatalogForgetsEarlierRequests pins the pooled catalog decode:
// a job that decoded a full inline catalog, then a catalog whose VM type
// names no known field, must reject the second one as a fresh job does,
// not complete it with the first request's values.
func TestInlineCatalogForgetsEarlierRequests(t *testing.T) {
	ds := newDecodeScratch()
	decode := func(j *job, body string) error {
		j.reset()
		ds.br.Reset(strings.NewReader(body))
		var p Params
		budgetSet := false
		return ds.jsonEnvelope(j, &p, &budgetSet)
	}
	j := newJob()
	if err := decode(j, `{"catalog": [{"name": "a", "power": 2, "price": 3}]}`); err != nil {
		t.Fatal(err)
	}
	bare := `{"catalog": [{"": 8}]}`
	want := decode(newJob(), bare)
	if want == nil {
		t.Fatal("a fresh job accepted a catalog without power or price")
	}
	if got := decode(j, bare); got == nil || got.Error() != want.Error() {
		t.Fatalf("reused job: %v, fresh job: %v", got, want)
	}
}
