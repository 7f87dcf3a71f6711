// Command medcc-load is a closed-loop load generator for medcc-serve:
// it drives the /schedule endpoint from -c concurrent clients until -n
// requests have succeeded, and reports throughput, the p50/p99/p999
// latency quantiles, and the server's cache hits, misses, resumes and
// hit ratio over the run (from GET /stats).
//
// Request bodies come from a binary workflow corpus (see cmd/wfgen
// -corpus), each instance re-encoded as a standalone container body
// (workflow + inline catalog), so the server needs no preloaded
// library. With -refs, bodies are skipped entirely: the generator
// fetches GET /library and sends query-only requests over the server's
// named (workflow, catalog) pairs — the traffic shape the staircase
// cache serves.
//
// Usage:
//
//	wfgen -corpus corpus.medc -count 64 -seed 1
//	medcc-load -url http://localhost:8080 -corpus corpus.medc -n 1000 -c 8
//	medcc-load -url http://localhost:8080 -refs -keys zipf -budget-dist grid -n 10000 -c 8
//
// -keys zipf skews which instance each request targets (repeat-heavy
// traffic); -budget-dist picks each request's budget fraction: "fixed"
// (always -budget), "grid" (random dyadic k/8 — bit-exact staircase
// hits), or "uniform" (random in [0,1] — mostly cache misses, which
// resume from the staircase once it is installed). 429
// backpressure responses are retried and counted, not treated as
// errors; any other non-200 status fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medcc/internal/encoding"
	"medcc/internal/stats"
	"medcc/internal/workflow"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "medcc-load:", err)
		os.Exit(1)
	}
}

// report is the run summary, printed as text or JSON.
type report struct {
	Requests   int     `json:"requests"`
	Clients    int     `json:"clients"`
	Bodies     int     `json:"bodies"`
	Seconds    float64 `json:"seconds"`
	PerSecond  float64 `json:"per_second"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	Retries429 int64   `json:"retries_429"`

	// Cache accounting over the run, from GET /stats deltas. StatsOK is
	// false (and the rest zero) against servers without the endpoint.
	// Resumes are the requests a worker solved from a staircase trail:
	// misses between grid levels and simulated traces.
	StatsOK      bool    `json:"stats_ok"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheResumes int64   `json:"cache_resumes"`
	HitRatio     float64 `json:"hit_ratio"`
}

// serverStats is the slice of the /stats response the generator reads.
type serverStats struct {
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheResumes int64 `json:"cache_resumes"`
}

// libraryListing is the slice of the /library response -refs reads.
type libraryListing struct {
	Catalogs  []string `json:"catalogs"`
	Workflows []string `json:"workflows"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("medcc-load", flag.ContinueOnError)
	var (
		base       = fs.String("url", "http://localhost:8080", "base URL of a running medcc-serve")
		corpus     = fs.String("corpus", "", "binary workflow corpus to draw request bodies from")
		refs       = fs.Bool("refs", false, "query-only traffic over the server's /library pairs instead of corpus bodies")
		n          = fs.Int("n", 1000, "total requests")
		c          = fs.Int("c", 4, "concurrent closed-loop clients")
		maxBody    = fs.Int("instances", 64, "cap on distinct corpus instances to prebuild (cycled round-robin)")
		frac       = fs.Float64("budget", 0.5, "budget as a fraction of each instance's feasible range")
		budgetDist = fs.String("budget-dist", "fixed", "per-request budget fraction: fixed, grid (dyadic k/8), uniform")
		keys       = fs.String("keys", "uniform", "instance selection: uniform (round-robin) or zipf (repeat-heavy)")
		zipfS      = fs.Float64("zipf-s", 1.2, "zipf skew parameter s > 1 for -keys zipf")
		seed       = fs.Int64("seed", 1, "seed for -keys zipf and -budget-dist draws")
		alg        = fs.String("alg", "", "algorithm name (server default when empty)")
		simulate   = fs.Bool("simulate", false, "request simulated traces")
		asJSON     = fs.Bool("json", false, "print the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpus == "" && !*refs {
		return fmt.Errorf("either -corpus or -refs is required")
	}
	if *corpus != "" && *refs {
		return fmt.Errorf("-corpus and -refs are mutually exclusive")
	}
	if *n <= 0 || *c <= 0 || *maxBody <= 0 {
		return fmt.Errorf("-n, -c, and -instances must be positive")
	}
	switch *keys {
	case "uniform", "zipf":
	default:
		return fmt.Errorf("-keys must be uniform or zipf, got %q", *keys)
	}
	switch *budgetDist {
	case "fixed", "grid", "uniform":
	default:
		return fmt.Errorf("-budget-dist must be fixed, grid, or uniform, got %q", *budgetDist)
	}
	if *keys == "zipf" && *zipfS <= 1 {
		return fmt.Errorf("-zipf-s must be > 1, got %v", *zipfS)
	}

	client := &http.Client{Timeout: 60 * time.Second}

	// The request key space: prebuilt container bodies, or query-only
	// (workflow, catalog) ref pairs from the live server's library.
	var bodies [][]byte
	var pairs [][2]string
	var err error
	if *refs {
		if pairs, err = libraryPairs(client, *base); err != nil {
			return err
		}
	} else {
		if bodies, err = prebuild(*corpus, *maxBody); err != nil {
			return err
		}
	}
	nkeys := len(bodies) + len(pairs)

	extra := ""
	if *alg != "" {
		extra += "&algorithm=" + url.QueryEscape(*alg)
	}
	if *simulate {
		extra += "&simulate=true"
	}

	statsBefore, statsOK := fetchStats(client, *base)

	var (
		next    atomic.Int64 // request tickets; uniform keys use i%nkeys
		retries atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    = make([]float64, 0, *n) // seconds, one per success
		runErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
	}
	start := time.Now()
	for k := 0; k < *c; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(k)*1_000_003))
			var zipf *rand.Zipf
			if *keys == "zipf" {
				zipf = rand.NewZipf(rng, *zipfS, 1, uint64(nkeys-1))
			}
			for {
				i := next.Add(1) - 1
				if i >= int64(*n) {
					return
				}
				key := int(i % int64(nkeys))
				if zipf != nil {
					key = int(zipf.Uint64())
				}
				f := *frac
				switch *budgetDist {
				case "grid":
					f = float64(rng.Intn(9)) / 8
				case "uniform":
					f = rng.Float64()
				}
				target := fmt.Sprintf("%s/schedule?budget_fraction=%g%s", *base, f, extra)
				var body []byte
				if *refs {
					p := pairs[key]
					target += "&workflow=" + url.QueryEscape(p[0]) + "&catalog=" + url.QueryEscape(p[1])
				} else {
					body = bodies[key]
				}
				for {
					t0 := time.Now()
					status, err := post(client, target, body)
					lat := time.Since(t0).Seconds()
					if err != nil {
						fail(err)
						return
					}
					if status == http.StatusTooManyRequests {
						retries.Add(1)
						time.Sleep(time.Millisecond)
						continue
					}
					if status != http.StatusOK {
						fail(fmt.Errorf("request %d: status %d", i, status))
						return
					}
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
					break
				}
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if runErr != nil {
		return runErr
	}

	sort.Float64s(lats)
	rep := report{
		Requests: len(lats), Clients: *c, Bodies: nkeys,
		Seconds: elapsed, PerSecond: float64(len(lats)) / elapsed,
		P50Ms:      stats.Percentile(lats, 50) * 1e3,
		P99Ms:      stats.Percentile(lats, 99) * 1e3,
		P999Ms:     stats.Percentile(lats, 99.9) * 1e3,
		Retries429: retries.Load(),
	}
	if statsOK {
		if after, ok := fetchStats(client, *base); ok {
			rep.StatsOK = true
			rep.CacheHits = after.CacheHits - statsBefore.CacheHits
			rep.CacheMisses = after.CacheMisses - statsBefore.CacheMisses
			rep.CacheResumes = after.CacheResumes - statsBefore.CacheResumes
			if total := rep.CacheHits + rep.CacheMisses; total > 0 {
				rep.HitRatio = float64(rep.CacheHits) / float64(total)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		return enc.Encode(rep)
	}
	fmt.Fprintf(stdout, "%d requests, %d clients, %d bodies: %.0f schedules/sec (%.2fs total)\n",
		rep.Requests, rep.Clients, rep.Bodies, rep.PerSecond, rep.Seconds)
	fmt.Fprintf(stdout, "latency p50 %.3fms  p99 %.3fms  p999 %.3fms  (429 retries: %d)\n",
		rep.P50Ms, rep.P99Ms, rep.P999Ms, rep.Retries429)
	if rep.StatsOK {
		fmt.Fprintf(stdout, "cache: %d hits / %d misses / %d resumes (hit ratio %.1f%%)\n",
			rep.CacheHits, rep.CacheMisses, rep.CacheResumes, rep.HitRatio*100)
	}
	return nil
}

func post(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// fetchStats reads the server's cache counters; ok is false when the
// endpoint is missing (older servers) or unreadable.
func fetchStats(client *http.Client, base string) (serverStats, bool) {
	var st serverStats
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return st, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, false
	}
	return st, true
}

// libraryPairs fetches GET /library and crosses every workflow with
// every catalog — the named pairs the snapshot has prebuilt.
func libraryPairs(client *http.Client, base string) ([][2]string, error) {
	resp, err := client.Get(base + "/library")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /library: status %d", resp.StatusCode)
	}
	var lib libraryListing
	if err := json.NewDecoder(resp.Body).Decode(&lib); err != nil {
		return nil, fmt.Errorf("GET /library: %w", err)
	}
	var pairs [][2]string
	for _, w := range lib.Workflows {
		for _, c := range lib.Catalogs {
			pairs = append(pairs, [2]string{w, c})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("server library lists no (workflow, catalog) pairs")
	}
	return pairs, nil
}

// prebuild reads up to max corpus instances and re-encodes each as a
// standalone single-record container (workflow + inline catalog):
// corpus-internal catalog refs are stream positional and mean nothing
// to the server, so every body carries its catalog.
func prebuild(path string, max int) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr, err := encoding.NewCorpusReader(f)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	wf := workflow.New()
	var b encoding.RecordBuilder
	for len(bodies) < max {
		cat, _, err := cr.Next(wf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b.Begin()
		if err := b.Workflow(wf); err != nil {
			return nil, err
		}
		if err := b.Catalog(cat); err != nil {
			return nil, err
		}
		body, err := b.AppendRecord(encoding.AppendHeader(nil, 1), false)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("corpus %s holds no instances", path)
	}
	return bodies, nil
}
