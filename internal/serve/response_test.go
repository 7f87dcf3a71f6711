package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/sim"
)

// The /schedule success body as encoding/json structs: the target tests
// decode responses into, and the oracle whose encoding responseBuf must
// reproduce byte for byte.

type scheduleResponse struct {
	Algorithm       string     `json:"algorithm"`
	SnapshotVersion uint64     `json:"snapshot_version"`
	Budget          float64    `json:"budget"`
	Schedule        []int      `json:"schedule"`
	Makespan        float64    `json:"makespan"`
	Cost            float64    `json:"cost"`
	Truncated       bool       `json:"truncated,omitempty"`
	Trace           *traceJSON `json:"trace,omitempty"`
}

type traceJSON struct {
	Makespan float64           `json:"makespan"`
	Cost     float64           `json:"cost"`
	Events   int64             `json:"events"`
	Modules  []moduleTraceJSON `json:"modules"`
	VMs      []vmTraceJSON     `json:"vms"`
}

type moduleTraceJSON struct {
	Ready  float64 `json:"ready"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
	VM     int     `json:"vm"`
}

type vmTraceJSON struct {
	Type      int     `json:"type"`
	BootAt    float64 `json:"boot_at"`
	ReadyAt   float64 `json:"ready_at"`
	StoppedAt float64 `json:"stopped_at"`
	Cost      float64 `json:"cost"`
	Modules   []int   `json:"modules"`
}

// oracleResponse encodes j's response with encoding/json: the bytes
// appendScheduleResponse must reproduce.
func oracleResponse(j *job) ([]byte, error) {
	resp := scheduleResponse{
		Algorithm:       j.alg,
		SnapshotVersion: j.snap.Version,
		Budget:          j.budget,
		Schedule:        j.sched,
		Makespan:        j.makespan,
		Cost:            j.cost,
		Truncated:       j.truncated,
	}
	if j.simulate {
		r := &j.trace
		t := &traceJSON{
			Makespan: r.Makespan,
			Cost:     r.Cost,
			Events:   r.Events,
			Modules:  make([]moduleTraceJSON, len(r.Modules)),
			VMs:      make([]vmTraceJSON, len(r.VMs)),
		}
		for i, m := range r.Modules {
			t.Modules[i] = moduleTraceJSON{Ready: m.Ready, Start: m.Start, Finish: m.Finish, VM: m.VM}
		}
		for i, v := range r.VMs {
			t.VMs[i] = vmTraceJSON{Type: v.Type, BootAt: v.BootAt, ReadyAt: v.ReadyAt,
				StoppedAt: v.StoppedAt, Cost: v.Cost, Modules: v.Modules}
		}
		resp.Trace = t
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&resp)
	return buf.Bytes(), err
}

// responseFloats are the values whose formatting differs between code
// paths: both zeros, the 'e' cutoffs at 1e-6 and 1e21 and their
// neighbours, one- and two-digit exponents, subnormals, integral values
// and the extremes.
var responseFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 3, 100, 0.1, -0.5, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, -3e-9, 1.5e-10, 2.5e-100,
	1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 4.2e22, 1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-320,
}

// responseAlgorithms are algorithm names, the registry's and names that
// need escaping: HTML-sensitive and quote characters, control bytes,
// non-ASCII text, the line and paragraph separators and invalid UTF-8.
var responseAlgorithms = []string{
	"critical-greedy", "gain3", "", `a<b>&"c"\d`, "\x00\x01\b\f\n\r\t\x1f\x7f",
	"ünïcödé 日本語", "sep\u2028par\u2029", "bad\xffutf8\xc3", "</script>",
}

// responseFloat draws a float for a random response: from the job's own
// small pool half the time, so values repeat within a response as in a
// trace, and otherwise a special value, a random one, a random integral
// one, or any finite bit pattern.
func responseFloat(rng *rand.Rand, pool []float64) float64 {
	if rng.Intn(2) == 0 {
		return pool[rng.Intn(len(pool))]
	}
	switch rng.Intn(4) {
	case 0:
		return responseFloats[rng.Intn(len(responseFloats))]
	case 1:
		return rng.Float64() * 1000
	case 2:
		return float64(rng.Intn(100000))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// randomInts returns nil, an empty slice or up to five small ints.
func randomInts(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	s := make([]int, 1+rng.Intn(5))
	for i := range s {
		s[i] = rng.Intn(2000) - 1
	}
	return s
}

// randomResponseJob fills a job with a random result: both truncation
// flags, simulated and not, nil and empty schedules and VM module
// lists, and floats from responseFloat.
func randomResponseJob(rng *rand.Rand) *job {
	pool := make([]float64, 1+rng.Intn(6))
	for i := range pool {
		pool[i] = responseFloat(rng, responseFloats)
	}
	fl := func() float64 { return responseFloat(rng, pool) }
	j := newJob()
	j.snap = &Snapshot{Version: rng.Uint64() >> rng.Intn(64)}
	j.alg = responseAlgorithms[rng.Intn(len(responseAlgorithms))]
	j.budget, j.makespan, j.cost = fl(), fl(), fl()
	j.sched = randomInts(rng)
	j.truncated = rng.Intn(2) == 0
	j.simulate = rng.Intn(2) == 0
	if !j.simulate {
		return j
	}
	t := &j.trace
	t.Makespan, t.Cost, t.Events = fl(), fl(), rng.Int63n(1e6)
	t.Modules = make([]sim.ModuleTrace, rng.Intn(8))
	for i := range t.Modules {
		t.Modules[i] = sim.ModuleTrace{Ready: fl(), Start: fl(), Finish: fl(), VM: rng.Intn(10) - 1}
	}
	t.VMs = make([]sim.VMTrace, rng.Intn(5))
	for i := range t.VMs {
		t.VMs[i] = sim.VMTrace{Type: rng.Intn(9), BootAt: fl(), ReadyAt: fl(),
			StoppedAt: fl(), Cost: fl(), Modules: randomInts(rng)}
	}
	return j
}

// TestScheduleResponseMatchesEncodingJSON pins the hand-appended
// /schedule body to encoding/json's encoding of the response structs,
// byte for byte, over random jobs encoded into one reused buffer (so
// memo entries of earlier responses are stale), and across the memo
// generation's wrap. A job holding NaN or ±Inf must fail as
// encoding/json does.
func TestScheduleResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var r responseBuf
	check := func(k int, j *job) {
		t.Helper()
		want, werr := oracleResponse(j)
		err := r.appendScheduleResponse(j)
		if werr != nil {
			if !errors.Is(err, errUnencodable) {
				t.Fatalf("job %d: encoding/json fails with %v, encode returned %v", k, werr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		if !bytes.Equal(r.b, want) {
			t.Fatalf("job %d: body differs from encoding/json\ngot:  %s\nwant: %s", k, r.b, want)
		}
	}
	for k := 0; k < 5000; k++ {
		if k == 2500 {
			r.gen = math.MaxUint16 // the next response wraps the generation
		}
		check(k, randomResponseJob(rng))
	}

	// Zero and negative zero in one trace, in both orders: a memo keyed
	// on == would print the second as the first.
	zero, neg := 0.0, math.Copysign(0, -1)
	for _, pair := range [][2]float64{{zero, neg}, {neg, zero}} {
		j := randomResponseJob(rng)
		j.simulate = true
		j.trace.Modules = []sim.ModuleTrace{{Ready: pair[0], Start: pair[1], Finish: pair[0], VM: 0}}
		check(-1, j)
	}

	// Values JSON cannot carry, in each float field.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			j := randomResponseJob(rng)
			j.simulate = true
			j.trace.Modules = []sim.ModuleTrace{{}}
			switch field {
			case 0:
				j.budget = bad
			case 1:
				j.makespan = bad
			case 2:
				j.trace.Cost = bad
			case 3:
				j.trace.Modules[0].Finish = bad
			}
			if err := r.appendScheduleResponse(j); !errors.Is(err, errUnencodable) {
				t.Errorf("value %v in field %d: encode returned %v, want errUnencodable", bad, field, err)
			}
		}
	}
}

// trace500Job returns a job holding critical-greedy's schedule of a
// generated 500-module workflow and its simulated trace under serve-churn's
// replay settings: no boot time and free transfers.
func trace500Job(tb testing.TB) *job {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	w, err := gen.Random(rng, gen.Params{
		Modules: 500, Edges: 2000, WorkloadMin: 100, WorkloadMax: 1000,
		DataSizeMax: 10, AddEntryExit: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := w.BuildMatrices(gen.Catalog(8, 3, 1), cloud.HourlyRoundUp)
	if err != nil {
		tb.Fatal(err)
	}
	cmin, cmax := m.BudgetRange(w)
	budget := sched.BudgetAt(cmin, cmax, 0.5)
	res, err := sched.Run(sched.CriticalGreedy(), w, m, budget)
	if err != nil {
		tb.Fatal(err)
	}
	j := newJob()
	j.snap = &Snapshot{Version: 7}
	j.alg, j.budget, j.simulate = "critical-greedy", budget, true
	j.sched, j.makespan, j.cost = res.Schedule, res.MED, res.Cost
	var rep sim.Replayer
	if err := rep.RunInto(sim.Config{Workflow: w, Matrices: m, Schedule: res.Schedule}, &j.trace); err != nil {
		tb.Fatal(err)
	}
	return j
}

// TestScheduleResponseAllocs pins the appender at 0 allocs/op: a warm
// job encodes a 500-module simulated response into its pooled buffer
// without allocating.
func TestScheduleResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	j := trace500Job(t)
	want, err := oracleResponse(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.resp.appendScheduleResponse(j); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j.resp.b, want) {
		t.Fatalf("500-module body differs from encoding/json")
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := j.resp.appendScheduleResponse(j); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm response encoding allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkScheduleResponseTrace500 times the response-encoding stage of
// a simulated request: a warm job appending a 500-module trace.
func BenchmarkScheduleResponseTrace500(b *testing.B) {
	j := trace500Job(b)
	if err := j.resp.appendScheduleResponse(j); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(j.resp.b)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.resp.appendScheduleResponse(j); err != nil {
			b.Fatal(err)
		}
	}
}

// overflowBody is a request whose result JSON cannot carry: two chained
// modules of workload 1e308 on a power-1 type overflow the makespan to
// +Inf. It used to answer 200 with an empty body, because encoding/json
// refused the value after the header was out.
const overflowBody = `{"workflow":{"modules":[{"name":"a","workload":1e308},{"name":"b","workload":1e308}],"edges":[{"from":0,"to":1,"data_size":0}]},"catalog":[{"name":"t","power":1}],"budget_fraction":0.5}`

// TestScheduleUnencodableAnswers422 requires a result holding a value
// JSON cannot carry to answer 422 with an error body and a matching
// Content-Length.
func TestScheduleUnencodableAnswers422(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	req := httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader([]byte(overflowBody)))
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %q", rw.Code, rw.Body.Bytes())
	}
	var e errorResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("body %q is not an error response: %v", rw.Body.Bytes(), err)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}

	// A success carries its length.
	rw, resp := postSchedule(t, s.Handler(), "/schedule?workflow=example&catalog=paper&budget_fraction=0.5&simulate=true", nil)
	if resp == nil {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.Bytes())
	}
	if cl := rw.Header().Get("Content-Length"); cl != strconv.Itoa(rw.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rw.Body.Len())
	}
}

// nanCostBody and infCostBody hold a workflow and a catalog that each pass
// validation while their product overflows: workload 1e308 on a
// power-0.5 type takes +Inf time, which rate 0 prices at NaN and rate 1
// at +Inf.
const (
	nanCostBody = `{"workflow":{"modules":[{"name":"a","workload":1e308}],"edges":[]},"catalog":[{"name":"t","power":0.5,"rate":0}],"budget":10}`
	infCostBody = `{"workflow":{"modules":[{"name":"a","workload":1e308}],"edges":[]},"catalog":[{"name":"t","power":0.5,"rate":1}],"budget":10}`
)

// TestNonFiniteInstanceAnswers400 requires an instance whose execution
// times or costs overflow to answer 400 naming the type, not a budget
// error: the instance, not the budget, is what the client must fix.
func TestNonFiniteInstanceAnswers400(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	for _, body := range []string{nanCostBody, infCostBody} {
		req := httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(body))
		rw := httptest.NewRecorder()
		s.Handler().ServeHTTP(rw, req)
		var e errorResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || rw.Code != http.StatusBadRequest ||
			!strings.Contains(e.Error, `type "t"`) {
			t.Fatalf("%s: status %d body %q, want 400 naming type \"t\"", body, rw.Code, rw.Body.Bytes())
		}
	}
}
