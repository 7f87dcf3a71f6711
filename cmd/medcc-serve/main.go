// Command medcc-serve runs the scheduling service: a long-lived daemon
// accepting workflow + catalog + budget requests over HTTP and
// returning the computed schedule, makespan, and cost (optionally with
// a simulated trace). Request bodies may be a JSON envelope, a binary
// workflow container, or empty with library refs in the query string;
// see internal/serve for the API.
//
// Usage:
//
//	medcc-serve -addr :8080
//	medcc-serve -workers 8 -queue 64 -batch 16 \
//	    -catalog prod=catalog.json -workflow montage=montage.json
//	medcc-serve -cache-mem 67108864 -cache-levels 65
//
// Loaded libraries are served as versioned immutable snapshots; POST
// /reload re-reads every -catalog/-workflow source without dropping
// in-flight requests. Named (workflow, catalog, algorithm) triples are
// answered from a snapshot-scoped budget-staircase cache (GET /stats
// reports hit rates); -cache=false disables it, -cache-levels bounds
// each staircase's refined budget grid, and -cache-mem caps resident
// staircase bytes with LRU eviction.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"medcc/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "medcc-serve:", err)
		os.Exit(1)
	}
}

// The daemon's connection timeouts. A client has readHeaderTimeout to
// send its request headers, and an idle keep-alive connection is closed
// after idleTimeout. There is deliberately no write timeout: a served
// optimal solve can take seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in the daemon's http.Server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// namedPaths collects repeatable name=path flags.
type namedPaths map[string]string

func (np namedPaths) String() string { return "" }

func (np namedPaths) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := np[name]; dup {
		return fmt.Errorf("duplicate name %q", name)
	}
	np[name] = path
	return nil
}

// run starts the daemon. A non-nil ready channel receives the bound
// listen address once the server accepts connections (used by tests to
// bind port 0).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("medcc-serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "scheduling workers (default GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "admission queue depth (default 4x workers; full queue replies 429)")
		batch       = fs.Int("batch", 0, "max jobs one worker drains per batch (default 16)")
		cache       = fs.Bool("cache", true, "serve named pairs from the snapshot-scoped staircase cache")
		cacheLevels = fs.Int("cache-levels", 0, "max budget levels per staircase after refinement (0 = 33; a smaller cap is raised to the 9-level starting grid)")
		cacheMem    = fs.Int64("cache-mem", 0, "resident staircase byte cap per snapshot, LRU-evicted (0 = unlimited)")
	)
	catalogs := namedPaths{}
	workflows := namedPaths{}
	fs.Var(catalogs, "catalog", "load a catalog JSON file as name=path (repeatable)")
	fs.Var(workflows, "workflow", "load a workflow file as name=path (repeatable; any ingest format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	s, err := serve.New(serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		MaxBatch:   *batch,
		Library:    serve.Library{Catalogs: catalogs, Workflows: workflows},
		Cache: serve.CacheConfig{
			Disable:   !*cache,
			MaxLevels: *cacheLevels,
			MaxBytes:  *cacheMem,
		},
	})
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(s.Handler())

	// Catch the stop signals before announcing the address: a signal sent
	// once the daemon is reachable must shut it down gracefully.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	snap := s.Snapshot()
	fmt.Fprintf(os.Stderr, "medcc-serve: listening on %s (%d workflows, %d catalogs, snapshot v%d)\n",
		ln.Addr(), len(snap.WorkflowNames()), len(snap.CatalogNames()), snap.Version)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "medcc-serve: %v, shutting down\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
