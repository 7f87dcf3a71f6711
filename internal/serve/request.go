package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"

	"medcc/internal/encoding"
	"medcc/internal/ingest"
	"medcc/internal/sched"
	"medcc/internal/sim"
)

// requestEnvelope is the JSON request body of POST /schedule. Inline
// workflows use the native workflow JSON; other formats arrive via the
// binary container or the preloaded library. When both an inline value
// and a ref are given, the inline value wins.
type requestEnvelope struct {
	Workflow       json.RawMessage `json:"workflow,omitempty"`
	WorkflowRef    string          `json:"workflow_ref,omitempty"`
	Catalog        json.RawMessage `json:"catalog,omitempty"`
	CatalogRef     string          `json:"catalog_ref,omitempty"`
	Budget         *float64        `json:"budget,omitempty"`
	BudgetFraction *float64        `json:"budget_fraction,omitempty"`
	Algorithm      string          `json:"algorithm,omitempty"`
	Simulate       bool            `json:"simulate,omitempty"`
	BootTime       float64         `json:"boot_time,omitempty"`
	Bandwidth      float64         `json:"bandwidth,omitempty"`
	Delay          float64         `json:"delay,omitempty"`
	TransferSlots  int             `json:"transfer_slots,omitempty"`
}

// decodeScratch is the pooled per-request decode state of the HTTP
// frontend: the sniffing buffer, a container reader, and the chunk
// decoder with its string intern table. Handlers borrow one from the
// pool for the duration of decoding only; everything a job needs after
// admission is copied into job-owned storage.
type decodeScratch struct {
	br  *bufio.Reader
	cr  *encoding.CorpusReader
	dec encoding.Decoder
	env requestEnvelope
}

func newDecodeScratch() *decodeScratch {
	return &decodeScratch{
		br: bufio.NewReaderSize(nil, 1<<16),
		cr: &encoding.CorpusReader{},
	}
}

// decodeRequest turns an HTTP request into a prepared job: query
// parameters first (the only channel for binary bodies), then the body
// (JSON envelope or binary container) overriding them, then resolution
// against the pinned snapshot via prepare.
func (s *Server) decodeRequest(j *job, ds *decodeScratch, req *http.Request) error {
	var p Params
	budgetSet, err := paramsFromQuery(&p, req)
	if err != nil {
		return err
	}

	ds.br.Reset(req.Body)
	f, detErr := ingest.Detect(ds.br)
	switch {
	case detErr == nil && f == ingest.FormatContainer:
		if err := ds.containerInstance(j, &p); err != nil {
			return err
		}
	case detErr == nil || errors.Is(detErr, ingest.ErrAmbiguousJSON):
		// Any JSON body is the request envelope, whichever workflow
		// dialect its keys happen to resemble.
		if err := ingest.SkipLead(ds.br); err != nil {
			return &RequestError{Op: "body", Err: err}
		}
		if err := ds.jsonEnvelope(j, &p, &budgetSet); err != nil {
			return err
		}
	case errors.Is(detErr, ingest.ErrEmpty):
		// Query-only request: workflow/catalog must be library refs.
	default:
		return &RequestError{Op: "body", Err: detErr}
	}

	if !budgetSet && !p.UseFraction {
		return &RequestError{Op: "budget", Err: errNoBudget}
	}
	if err := validateSimParams(&p); err != nil {
		return err
	}
	return s.prepare(j, p)
}

// paramsFromQuery fills p from URL query parameters: workflow, catalog
// (library refs), budget, budget_fraction, algorithm, simulate,
// boot_time, bandwidth, delay, transfer_slots.
func paramsFromQuery(p *Params, req *http.Request) (budgetSet bool, err error) {
	q := req.URL.Query()
	p.WorkflowRef = q.Get("workflow")
	p.CatalogRef = q.Get("catalog")
	p.Algorithm = q.Get("algorithm")
	if v := q.Get("budget"); v != "" {
		if p.Budget, err = queryFloat("budget", v); err != nil {
			return false, err
		}
		budgetSet = true
	}
	if v := q.Get("budget_fraction"); v != "" {
		if p.Fraction, err = queryFloat("budget_fraction", v); err != nil {
			return false, err
		}
		p.UseFraction = true
	}
	if v := q.Get("simulate"); v != "" {
		b, perr := strconv.ParseBool(v)
		if perr != nil {
			return false, &RequestError{Op: "simulate", Detail: v, Err: errBadParam}
		}
		p.Simulate = b
	}
	if v := q.Get("boot_time"); v != "" {
		if p.BootTime, err = queryFloat("boot_time", v); err != nil {
			return false, err
		}
	}
	if v := q.Get("bandwidth"); v != "" {
		if p.Bandwidth, err = queryFloat("bandwidth", v); err != nil {
			return false, err
		}
	}
	if v := q.Get("delay"); v != "" {
		if p.Delay, err = queryFloat("delay", v); err != nil {
			return false, err
		}
	}
	if v := q.Get("transfer_slots"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			return false, &RequestError{Op: "transfer_slots", Detail: v, Err: errBadParam}
		}
		p.TransferSlots = n
	}
	return budgetSet, nil
}

func queryFloat(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, &RequestError{Op: name, Detail: v, Err: errBadParam}
	}
	return f, nil
}

// validateSimParams rejects replay settings the simulator would refuse,
// so they surface as 400s instead of worker-side 500s.
func validateSimParams(p *Params) error {
	for _, c := range [...]struct {
		name string
		v    float64
	}{{"budget", p.Budget}, {"boot_time", p.BootTime}, {"bandwidth", p.Bandwidth}, {"delay", p.Delay}} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return &RequestError{Op: c.name, Err: errBadParam}
		}
	}
	return nil
}

// jsonEnvelope decodes the JSON request body, materializing inline
// values into job-owned storage.
func (ds *decodeScratch) jsonEnvelope(j *job, p *Params, budgetSet *bool) error {
	ds.env = requestEnvelope{}
	if err := json.NewDecoder(ds.br).Decode(&ds.env); err != nil {
		return &RequestError{Op: "json", Err: err}
	}
	e := &ds.env
	if e.WorkflowRef != "" {
		p.WorkflowRef, p.Workflow = e.WorkflowRef, nil
	}
	if len(e.Workflow) > 0 {
		if err := json.Unmarshal(e.Workflow, j.ownW); err != nil {
			return &RequestError{Op: "workflow", Err: err}
		}
		p.Workflow, p.WorkflowRef = j.ownW, ""
	}
	if e.CatalogRef != "" {
		p.CatalogRef, p.Catalog = e.CatalogRef, nil
	}
	if len(e.Catalog) > 0 {
		// json.Unmarshal decodes into the spare capacity of a reused
		// slice without zeroing it, so a VM type missing a field would
		// keep an earlier request's value: clear the pooled storage.
		clear(j.ownCat[:cap(j.ownCat)])
		j.ownCat = j.ownCat[:0]
		if err := json.Unmarshal(e.Catalog, &j.ownCat); err != nil {
			return &RequestError{Op: "catalog", Err: err}
		}
		if err := j.ownCat.Validate(); err != nil {
			return &RequestError{Op: "catalog", Err: err}
		}
		p.Catalog, p.CatalogRef = j.ownCat, ""
	}
	if e.Budget != nil {
		p.Budget, *budgetSet = *e.Budget, true
	}
	if e.BudgetFraction != nil {
		p.Fraction, p.UseFraction = *e.BudgetFraction, true
	}
	if e.Algorithm != "" {
		p.Algorithm = e.Algorithm
	}
	if e.Simulate {
		p.Simulate = true
	}
	if e.BootTime != 0 {
		p.BootTime = e.BootTime
	}
	if e.Bandwidth != 0 {
		p.Bandwidth = e.Bandwidth
	}
	if e.Delay != 0 {
		p.Delay = e.Delay
	}
	if e.TransferSlots != 0 {
		p.TransferSlots = e.TransferSlots
	}
	return nil
}

// containerInstance decodes a binary-container request body: the first
// record's workflow chunk (required) and inline catalog chunk (if
// present; otherwise the catalog must be a library ref). Budget and
// algorithm arrive via query parameters.
func (ds *decodeScratch) containerInstance(j *job, p *Params) error {
	if err := ds.cr.Reset(ds.br); err != nil {
		return &RequestError{Op: "container", Err: err}
	}
	rec, cat, _, err := ds.cr.NextRaw()
	if err == io.EOF {
		return &RequestError{Op: "container", Err: ingest.ErrNoWorkflowChunk, Detail: "no records"}
	}
	if err != nil {
		return &RequestError{Op: "container", Err: err}
	}
	i := rec.Find(encoding.ChunkWorkflow)
	if i < 0 {
		return &RequestError{Op: "container", Err: ingest.ErrNoWorkflowChunk}
	}
	if err := ds.dec.WorkflowInto(rec, i, j.ownW); err != nil {
		return &RequestError{Op: "workflow", Err: err}
	}
	p.Workflow, p.WorkflowRef = j.ownW, ""
	if cat != nil {
		// Copy out of the reader's catalog dictionary: the scratch is
		// recycled as soon as decoding ends, the job lives longer.
		j.ownCat = append(j.ownCat[:0], cat...)
		p.Catalog, p.CatalogRef = j.ownCat, ""
	}
	return nil
}

// --- HTTP handlers ---

// maxRequestBody caps the bytes POST /schedule reads from a body. The
// largest instances this repository schedules (m=2000 modules, 40k
// dependencies) take 2.2 MB as a JSON envelope and 0.7 MB as a binary
// container, so 8 MiB leaves four times that headroom, while one
// request can no longer make the decoder buffer an unbounded body.
const maxRequestBody = 8 << 20

// handleSchedule admits one HTTP scheduling request. A body over
// maxRequestBody answers 413 without reaching a worker.
//
// medcc:onesnapshot — a request must never mix two library versions:
// the snapshot is Loaded once at admission and pinned on the job.
func (s *Server) handleSchedule(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errPostOnly)
		return
	}
	req.Body = http.MaxBytesReader(rw, req.Body, maxRequestBody)
	j := s.jobs.Get().(*job)
	j.reset()
	ds := s.scratch.Get().(*decodeScratch)
	err := s.decodeRequest(j, ds, req)
	ds.br.Reset(nil)
	s.scratch.Put(ds)
	if err == nil {
		err = s.dispatch(j)
	}
	if err != nil {
		writeError(rw, statusOf(err), err)
	} else {
		writeScheduleResponse(rw, j)
	}
	j.release()
	s.jobs.Put(j)
}

func (s *Server) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	snap := s.snap.Load()
	writeJSON(rw, http.StatusOK, &healthResponse{
		Status:          "ok",
		SnapshotVersion: snap.Version,
		Workers:         len(s.workers),
		QueueDepth:      cap(s.queue),
	})
}

func (s *Server) handleLibrary(rw http.ResponseWriter, req *http.Request) {
	snap := s.snap.Load()
	writeJSON(rw, http.StatusOK, &libraryResponse{
		SnapshotVersion: snap.Version,
		Catalogs:        snap.CatalogNames(),
		Workflows:       snap.WorkflowNames(),
		Algorithms:      s.Algorithms(),
	})
}

// handleStats reports the pinned snapshot's cache counters plus queue
// and worker load. It reads the same atomics the hot path writes; the
// marshaling cost lives here, never on the request path.
func (s *Server) handleStats(rw http.ResponseWriter, req *http.Request) {
	snap := s.snap.Load()
	resp := statsResponse{
		SnapshotVersion: snap.Version,
		Workers:         len(s.workers),
		BusyWorkers:     int(s.busy.Load()),
		QueueLen:        len(s.queue),
		QueueDepth:      cap(s.queue),
		WorkerPanics:    s.panics.Load(),
	}
	if resp.Workers > 0 {
		resp.BusyFraction = float64(resp.BusyWorkers) / float64(resp.Workers)
	}
	if c := snap.cache; c != nil {
		resp.CacheEnabled = true
		resp.CacheHits = c.hits.Load()
		resp.CacheMisses = c.misses.Load()
		resp.CacheResumes = c.resumes.Load()
		resp.CacheEvictions = c.evictions.Load()
		resp.CacheBuilds = c.builds.Load()
		resp.Staircases = c.staircases()
		resp.CacheBytes = c.bytes.Load()
	}
	writeJSON(rw, http.StatusOK, &resp)
}

func (s *Server) handleReload(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errPostOnly)
		return
	}
	snap, err := s.Reload()
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err)
		return
	}
	writeJSON(rw, http.StatusOK, &healthResponse{
		Status:          "reloaded",
		SnapshotVersion: snap.Version,
		Workers:         len(s.workers),
		QueueDepth:      cap(s.queue),
	})
}

// statusOf maps a serving error onto its HTTP status.
func statusOf(err error) int {
	var reqErr *RequestError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &reqErr):
		return http.StatusBadRequest
	case errors.Is(err, sched.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// --- response marshaling (the deliberate cold path) ---

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

type healthResponse struct {
	Status          string `json:"status"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	Workers         int    `json:"workers"`
	QueueDepth      int    `json:"queue_depth"`
}

type libraryResponse struct {
	SnapshotVersion uint64   `json:"snapshot_version"`
	Catalogs        []string `json:"catalogs"`
	Workflows       []string `json:"workflows"`
	Algorithms      []string `json:"algorithms"`
}

type statsResponse struct {
	SnapshotVersion uint64  `json:"snapshot_version"`
	CacheEnabled    bool    `json:"cache_enabled"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheResumes    int64   `json:"cache_resumes"`
	CacheEvictions  int64   `json:"cache_evictions"`
	CacheBuilds     int64   `json:"cache_builds"`
	Staircases      int     `json:"staircases"`
	CacheBytes      int64   `json:"cache_bytes"`
	QueueLen        int     `json:"queue_len"`
	QueueDepth      int     `json:"queue_depth"`
	Workers         int     `json:"workers"`
	BusyWorkers     int     `json:"busy_workers"`
	BusyFraction    float64 `json:"busy_fraction"`
	WorkerPanics    int64   `json:"worker_panics"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeScheduleResponse(rw http.ResponseWriter, j *job) {
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
		resp.Trace = traceOf(&j.trace)
	}
	writeJSON(rw, http.StatusOK, &resp)
}

func traceOf(r *sim.Result) *traceJSON {
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
	return t
}

func writeError(rw http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		rw.Header().Set("Retry-After", "1")
	}
	writeJSON(rw, status, &errorResponse{Error: err.Error()})
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}
