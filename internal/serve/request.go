package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

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
	// Over HTTP a budget must be a finite non-negative number; the
	// in-process Schedule leaves the budget to the scheduler, which
	// answers a NaN or negative one with ErrInfeasible.
	if badParam(p.Budget) {
		return &RequestError{Op: "budget", Err: errBadParam}
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
		if perr != nil {
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

// validateSimParams rejects replay settings the simulator would refuse
// or misread (a negative transfer_slots would replay as unlimited), so
// they surface as 400s instead of worker-side 500s or wrong traces.
// prepare runs it, so the query, the request body and the in-process
// Schedule share it.
func validateSimParams(p *Params) error {
	for _, c := range [...]struct {
		name string
		v    float64
	}{{"boot_time", p.BootTime}, {"bandwidth", p.Bandwidth}, {"delay", p.Delay}} {
		if badParam(c.v) {
			return &RequestError{Op: c.name, Err: errBadParam}
		}
	}
	if p.TransferSlots < 0 {
		return &RequestError{Op: "transfer_slots", Err: errBadParam}
	}
	return nil
}

// badParam reports a negative or non-finite request value.
func badParam(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }

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
// maxRequestBody answers 413 without reaching a worker. The response
// body is appended whole before any header goes out, so a result JSON
// cannot carry (a NaN or infinite value) answers 422, not a 200 with a
// broken body.
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
	if err == nil {
		err = j.resp.appendScheduleResponse(j)
	}
	if err != nil {
		writeError(rw, statusOf(err), err)
	} else {
		h := rw.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(j.resp.b)))
		rw.WriteHeader(http.StatusOK)
		// A failed write means the client went away; there is no one
		// left to answer.
		_, _ = rw.Write(j.resp.b)
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
	case errors.Is(err, sched.ErrInfeasible), errors.Is(err, errUnencodable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// --- responses ---
//
// A /schedule success body is appended by hand into a buffer pooled with
// the job (responseBuf). Its bytes are exactly what encoding/json writes
// for the scheduleResponse structs of response_test.go, which check it.
// The other endpoints and every error body stay on encoding/json.

// errUnencodable fails a result holding a value JSON cannot carry (NaN
// or ±Inf, say a makespan that overflowed); it answers 422.
var errUnencodable = errors.New("serve: result value not representable in JSON")

// Float memo geometry: 2,048 entries, each probed from its hash slot
// through at most memoProbes slots.
const (
	memoBits   = 11
	memoProbes = 8
)

// memoEntry records that the float with these bits was formatted into
// the response at b[off : off+n]. Entries of earlier responses carry an
// older gen and count as empty. A value first formatted past the body's
// first 4 GiB, where off would overflow, is not recorded.
type memoEntry struct {
	bits uint64
	off  uint32
	n    uint16
	gen  uint16
}

// responseBuf is a job's /schedule response body and the memo that
// fills it. Once a job has encoded a trace, each distinct float of a
// response is formatted once, unless the memo has no free slot left near
// its hash: a 500-module trace holds about 3,500 floats but about 700
// distinct values, since with zero boot time a module's ready and start
// times and its VM's boot and ready times coincide, and its finish time
// is its VM's stop time. The memo is keyed on the value's bits, never on
// ==, which would print -0 as 0.
type responseBuf struct {
	b    []byte
	memo []memoEntry // allocated by the first trace
	gen  uint16
	// bad records the first NaN or infinite value appended.
	bad    bool
	badVal float64
}

// appendScheduleResponse appends the JSON body of j's successful
// /schedule response to the emptied buffer. It matches
// json.NewEncoder(w).Encode(&scheduleResponse{...}) byte for byte:
// field order, omitempty on truncated and trace, HTML-escaped strings,
// null for nil slices and the trailing newline. Like encoding/json it
// refuses NaN and ±Inf, with errUnencodable.
//
// medcc:allocfree
func (r *responseBuf) appendScheduleResponse(j *job) error {
	r.b, r.bad = r.b[:0], false
	if r.gen++; r.gen == 0 {
		clear(r.memo)
		r.gen = 1
	}
	r.b = append(r.b, `{"algorithm":`...)
	r.b = appendJSONString(r.b, j.alg)
	r.b = append(r.b, `,"snapshot_version":`...)
	r.b = strconv.AppendUint(r.b, j.snap.Version, 10)
	r.float(`,"budget":`, j.budget)
	r.b = append(r.b, `,"schedule":`...)
	r.b = appendJSONInts(r.b, j.sched)
	r.float(`,"makespan":`, j.makespan)
	r.float(`,"cost":`, j.cost)
	if j.truncated {
		r.b = append(r.b, `,"truncated":true`...)
	}
	if j.simulate {
		r.trace(&j.trace)
	}
	r.b = append(r.b, "}\n"...)
	if r.bad {
		return fmt.Errorf("%w: %v", errUnencodable, r.badVal)
	}
	return nil
}

// trace appends the "trace" member of a simulated response.
func (r *responseBuf) trace(t *sim.Result) {
	if r.memo == nil {
		r.memo = newMemo()
	}
	r.float(`,"trace":{"makespan":`, t.Makespan)
	r.float(`,"cost":`, t.Cost)
	r.b = append(r.b, `,"events":`...)
	r.b = strconv.AppendInt(r.b, t.Events, 10)
	r.b = append(r.b, `,"modules":[`...)
	for i := range t.Modules {
		m := &t.Modules[i]
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.float(`{"ready":`, m.Ready)
		r.float(`,"start":`, m.Start)
		r.float(`,"finish":`, m.Finish)
		r.b = append(r.b, `,"vm":`...)
		r.b = strconv.AppendInt(r.b, int64(m.VM), 10)
		r.b = append(r.b, '}')
	}
	r.b = append(r.b, `],"vms":[`...)
	for i := range t.VMs {
		v := &t.VMs[i]
		if i > 0 {
			r.b = append(r.b, ',')
		}
		r.b = append(r.b, `{"type":`...)
		r.b = strconv.AppendInt(r.b, int64(v.Type), 10)
		r.float(`,"boot_at":`, v.BootAt)
		r.float(`,"ready_at":`, v.ReadyAt)
		r.float(`,"stopped_at":`, v.StoppedAt)
		r.float(`,"cost":`, v.Cost)
		r.b = append(r.b, `,"modules":`...)
		r.b = appendJSONInts(r.b, v.Modules)
		r.b = append(r.b, '}')
	}
	r.b = append(r.b, "]}"...)
}

// medcc:coldpath — once per pooled job, on its first trace.
func newMemo() []memoEntry { return make([]memoEntry, 1<<memoBits) }

// float appends key and then f as encoding/json formats it, copying the
// bytes of an earlier occurrence when the memo holds one. A NaN or
// infinite f appends nothing and fails the response.
func (r *responseBuf) float(key string, f float64) {
	r.b = append(r.b, key...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if !r.bad {
			r.bad, r.badVal = true, f
		}
		return
	}
	if r.memo == nil {
		r.b = appendJSONFloat(r.b, f)
		return
	}
	// The hash drops the sign bit: x and -x, 0 and -0 among them, share
	// a probe sequence, and only the comparison of bits keeps them apart.
	bits := math.Float64bits(f)
	h := (bits << 1) * 0x9e3779b97f4a7c15 >> (64 - memoBits)
	for k := uint64(0); k < memoProbes; k++ {
		e := &r.memo[(h+k)&(1<<memoBits-1)]
		if e.gen != r.gen {
			off := len(r.b)
			r.b = appendJSONFloat(r.b, f)
			if uint64(off) < 1<<32 {
				*e = memoEntry{bits: bits, off: uint32(off), n: uint16(len(r.b) - off), gen: r.gen}
			}
			return
		}
		if e.bits == bits {
			r.b = append(r.b, r.b[e.off:e.off+uint32(e.n)]...)
			return
		}
	}
	r.b = appendJSONFloat(r.b, f)
}

// appendJSONFloat appends a finite f as encoding/json does: strconv's
// shortest 'f' format, or 'e' below 1e-6 and from 1e21 up, with a
// two-digit negative exponent shortened (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONInts appends s as a JSON array, or null when s is nil.
func appendJSONInts(b []byte, s []int) []byte {
	if s == nil {
		b = append(b, "null"...)
		return b
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ']')
	return b
}

// appendJSONString appends s as a JSON string the way encoding/json
// escapes it by default: quote, backslash and control characters, the
// HTML-sensitive <, > and &, U+2028 and U+2029, and each byte of invalid
// UTF-8 as U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	b = append(b, '"')
	return b
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
