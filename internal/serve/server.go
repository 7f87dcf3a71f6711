// Package serve is the long-running scheduling service: a fixed worker
// pool with per-worker pooled scratch serving workflow + catalog +
// budget requests over HTTP (JSON or the binary container) or
// in-process, with bounded admission queueing, same-instance request
// batching, and versioned snapshots of the loaded catalog/workflow
// libraries.
//
// Request life cycle: the frontend decodes into a pooled job, pins the
// current snapshot, and performs a non-blocking send into the admission
// queue (a full queue is 429 backpressure, not a wait). A worker drains
// a batch, sorts it so same-instance requests are adjacent (one engine
// bind amortizes across the run), schedules each job in its own pooled
// scratch, and signals completion. The frontend then appends the JSON
// response into a buffer pooled with the job, without allocating once
// warm, and writes it with its Content-Length in one Write.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"medcc/internal/sched"
)

// defaultAlgorithm is used when a request names no algorithm.
const defaultAlgorithm = "critical-greedy"

// Config sizes the server and names its libraries.
type Config struct {
	// Workers is the number of scheduling goroutines (default
	// GOMAXPROCS). Each owns its scheduler engines, timing, and
	// Replayer.
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers). A
	// full queue rejects with ErrBusy / HTTP 429.
	QueueDepth int
	// MaxBatch caps how many queued jobs one worker drains per batch
	// (default 16).
	MaxBatch int
	// Library names the catalog/workflow sources loaded into the
	// snapshot; the built-in "paper" catalog and "example" workflow are
	// always present.
	Library Library
	// Cache configures the snapshot-scoped staircase cache (enabled by
	// default; zero value means defaults).
	Cache CacheConfig
}

// Server is the scheduling service. Create with New, serve via
// Handler (HTTP) or Schedule (in-process), stop with Close.
type Server struct {
	lib      Library
	maxBatch int
	cacheCfg CacheConfig

	snap    atomic.Pointer[Snapshot]
	queue   chan *job
	workers []worker
	algOK   map[string]bool
	busy    atomic.Int64 // workers currently serving a batch (stats gauge)
	panics  atomic.Int64 // panics recovered on workers, server lifetime

	jobs    sync.Pool
	scratch sync.Pool

	mu     sync.RWMutex // guards closed against queue sends
	closed bool
	wg     sync.WaitGroup

	reloadMu sync.Mutex // serializes Reload version bumps
}

// New loads the library, builds snapshot version 1, and starts the
// worker pool.
func New(cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 16
	}
	algOK := intoSchedulers()
	snap, err := buildSnapshot(cfg.Library, 1, cfg.Cache, algOK)
	if err != nil {
		return nil, err
	}
	s := &Server{
		lib:      cfg.Library,
		maxBatch: maxBatch,
		cacheCfg: cfg.Cache,
		queue:    make(chan *job, depth),
		workers:  make([]worker, workers),
		algOK:    algOK,
	}
	s.snap.Store(snap)
	s.jobs.New = func() any { return newJob() }
	s.scratch.New = func() any { return newDecodeScratch() }
	for k := range s.workers {
		s.wg.Add(1)
		go s.runWorker(k)
	}
	return s, nil
}

// intoSchedulers maps the registry names usable by the pool: every
// registered scheduler a sched.Runner can solve with.
func intoSchedulers() map[string]bool {
	ok := map[string]bool{}
	var r sched.Runner
	for _, name := range sched.Names() {
		if _, err := r.Scheduler(name); err == nil {
			ok[name] = true
		}
	}
	return ok
}

// Algorithms lists the servable algorithm names, sorted.
func (s *Server) Algorithms() []string { return sortedKeys(s.algOK) }

// Snapshot returns the current library snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload re-reads every library source, builds the next snapshot
// version (with a fresh empty staircase cache), and publishes it
// atomically. In-flight requests finish on the snapshot — and the
// cache — they pinned at admission; a failed reload changes nothing.
func (s *Server) Reload() (*Snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	next, err := buildSnapshot(s.lib, s.snap.Load().Version+1, s.cacheCfg, s.algOK)
	if err != nil {
		return nil, err
	}
	s.snap.Store(next)
	return next, nil
}

// Close stops admission, drains the queue, and waits for the workers.
// Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Handler returns the HTTP API:
//
//	POST /schedule  schedule a workflow (JSON envelope, binary
//	                container, or query-only with library refs)
//	GET  /healthz   liveness + snapshot version
//	GET  /library   snapshot listing: catalogs, workflows, algorithms
//	GET  /stats     cache hit/miss/eviction counters, queue and worker load
//	POST /reload    rebuild the snapshot from the library sources
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/schedule", s.handleSchedule)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/library", s.handleLibrary)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/reload", s.handleReload)
	return mux
}

// RequestError marks a malformed or unsatisfiable request — the class
// of failure the HTTP layer reports as 400.
type RequestError struct {
	Op     string // which input failed: "workflow", "catalog", "budget", ...
	Detail string // offending value, when useful
	Err    error
}

func (e *RequestError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("serve: %s %q: %v", e.Op, e.Detail, e.Err)
	}
	return fmt.Sprintf("serve: %s: %v", e.Op, e.Err)
}

func (e *RequestError) Unwrap() error { return e.Err }

var (
	errUnknownAlgorithm = errors.New("unknown or non-pooled algorithm")
	errUnknownName      = errors.New("not in the current snapshot")
	errMissingInput     = errors.New("neither inline value nor library ref given")
	errBadFraction      = errors.New("budget_fraction must be in [0,1]")
	errBadParam         = errors.New("invalid parameter")
	errPostOnly         = errors.New("serve: POST only")
)
