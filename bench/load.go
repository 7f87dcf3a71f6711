package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medcc/internal/serve"
)

// clients is the number of load clients, each on its own connection:
// one per CPU of the 2-CPU machines the bounds were measured on.
const clients = 2

var errStatus = errors.New("unexpected HTTP status")

// target is one hosted server: the scheduling service behind a loopback
// listener, and the client transport the load goroutines share.
type target struct {
	srv     *serve.Server
	handler http.Handler // srv.Handler(), called in-process for /stats and /reload
	hs      *http.Server
	base    string
	client  *http.Client
	libDir  string
	wg      sync.WaitGroup
}

// startTarget starts the service on 127.0.0.1:0. With rec non-nil the
// HTTP handler records serve.http spans for traced requests.
func startTarget(lib serve.Library, libDir string, rec *recorder) (*target, error) {
	srv, err := serve.New(serve.Config{Library: lib})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		srv:     srv,
		handler: srv.Handler(),
		base:    "http://" + ln.Addr().String(),
		libDir:  libDir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	h := t.handler
	if rec != nil {
		h = rec.wrap(h)
	}
	t.hs = &http.Server{Handler: h}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		// Serve returns ErrServerClosed from close; any earlier failure
		// shows as failed requests.
		_ = t.hs.Serve(ln)
	}()
	return t, nil
}

// close stops the listener and the service and removes the library.
func (t *target) close() {
	_ = t.hs.Close() // only reports the listener's close error
	t.wg.Wait()
	t.client.CloseIdleConnections()
	t.srv.Close()
	if t.libDir != "" {
		_ = os.RemoveAll(t.libDir) // a leftover library only costs disk in .bench_build
	}
}

// post sends one scheduling request and reads the response into buf.
// A non-negative reqID marks the request as traced.
func (t *target) post(url string, body []byte, reqID int64, buf *bytes.Buffer) (int, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, t.base+url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if reqID >= 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, nil
}

// serveStats is the part of GET /stats the benchmark reads.
type serveStats struct {
	SnapshotVersion uint64  `json:"snapshot_version"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	CacheEvictions  int64   `json:"cache_evictions"`
	CacheBuilds     int64   `json:"cache_builds"`
	QueueLen        int     `json:"queue_len"`
	BusyFraction    float64 `json:"busy_fraction"`
}

// call runs one request through the service's handler in-process.
func (t *target) call(method, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %w %d: %s", method, path, errStatus, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

func (t *target) stats() (serveStats, error) {
	var st serveStats
	data, err := t.call(http.MethodGet, "/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// statsTracker accumulates the cache counters across snapshot reloads:
// /stats reports the current snapshot's counters, and a reload starts
// new ones at zero. It keeps the last observation of every snapshot
// version and the gauges sampled by a traced run.
type statsTracker struct {
	mu    sync.Mutex
	base  serveStats   // counters when the load began
	last  []serveStats // last observation per version, ascending
	queue []float64
	busy  []float64
}

func (st *statsTracker) observe(s serveStats, gauges bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch n := len(st.last); {
	case n == 0:
		st.base = s
		st.last = append(st.last, s)
	case st.last[n-1].SnapshotVersion < s.SnapshotVersion:
		st.last = append(st.last, s)
	case st.last[n-1].SnapshotVersion == s.SnapshotVersion:
		// Observers race; counters only grow, so keep the larger.
		l := &st.last[n-1]
		l.CacheHits = max(l.CacheHits, s.CacheHits)
		l.CacheMisses = max(l.CacheMisses, s.CacheMisses)
		l.CacheBuilds = max(l.CacheBuilds, s.CacheBuilds)
		l.CacheEvictions = max(l.CacheEvictions, s.CacheEvictions)
	}
	if gauges {
		st.queue = append(st.queue, float64(s.QueueLen))
		st.busy = append(st.busy, s.BusyFraction)
	}
}

// totals returns the counters accumulated since the first observation.
func (st *statsTracker) totals() (hits, misses, builds, evictions int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.last {
		hits += s.CacheHits
		misses += s.CacheMisses
		builds += s.CacheBuilds
		evictions += s.CacheEvictions
	}
	b := st.base
	return hits - b.CacheHits, misses - b.CacheMisses, builds - b.CacheBuilds, evictions - b.CacheEvictions
}

// clientLog is what one load goroutine counted. Each goroutine owns one.
// Latencies of 200 responses are kept as nanoseconds in 4 bytes each,
// and saved responses up to maxSavedBytes, so the benchmark's own heap
// stays small beside the server's in peak_rss_mb.
type clientLog struct {
	windows   [maxWindows]windowLog // measured closed-loop windows
	open      []uint32              // open-loop latencies from the due time
	attempted int64
	failed    int64
	rejected  int64
	ok        int64
	respBytes int64
	reqBytes  int64
	saved     []savedResponse
	savedSize int
	firstErr  error
}

// windowLog is one client's share of a closed-loop window: the 200
// responses completed inside it and the latencies of those started in
// it, untraced and traced apart.
type windowLog struct {
	done   int64
	lat    []uint32
	traced []uint32
}

// maxSavedBytes caps one client's saved response bodies.
const maxSavedBytes = 4 << 20

// nanos clamps a latency into a clientLog entry.
func nanos(d time.Duration) uint32 {
	return uint32(min(max(d, 0), math.MaxUint32))
}

// savedResponse is a response body the oracle checks after the load.
type savedResponse struct {
	ring int
	body []byte
}

// driver runs the load phases of one serving run.
type driver struct {
	cfg      config
	spec     servingSpec
	t        *target
	in       *inputs
	rec      *recorder // nil when untraced
	stats    statsTracker
	ticket   atomic.Int64
	logs     [clients]clientLog
	arrivals *rand.Rand // open-loop arrival gaps

	reloads      atomic.Int64
	reloadFailed atomic.Int64
	genLate      []float64 // open-loop pacer lateness, µs
}

// plan is the timing of the load, all derived from --seconds S: S/20 of
// warm-up, then windows S/8 long. An untraced run spends all of S in
// eight closed-loop windows, which is all its metrics need; a traced run
// runs four closed-loop windows, the odd ones traced, and four open-loop
// windows.
type plan struct {
	warm, window time.Duration
	closed, open int
}

const maxWindows = 8

// kernelsPerMark is the number of calibration kernels timed at each
// window boundary.
const kernelsPerMark = 3

func planFor(seconds float64, traced bool) plan {
	s := time.Duration(seconds * float64(time.Second))
	p := plan{warm: s / 20, window: s / maxWindows, closed: maxWindows}
	if traced {
		p.closed, p.open = maxWindows/2, maxWindows/2
	}
	return p
}

// load runs warm-up and the measured windows and returns the
// calibration scale of each closed-loop window. The clients pause at
// every closed-loop window boundary while the calibration kernel runs.
func (d *driver) load(p plan, cal *calibration) ([]float64, error) {
	st, err := d.t.stats()
	if err != nil {
		return nil, err
	}
	d.stats.observe(st, false)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if d.rec != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			d.sampler(stop)
		}()
	}

	d.closedWindow(-1, p.warm)
	marks := make([]int, 0, p.closed+1)
	for k := 0; k < p.closed; k++ {
		marks = append(marks, cal.mark(kernelsPerMark))
		d.closedWindow(k, p.window)
	}
	marks = append(marks, cal.mark(kernelsPerMark))
	scales := make([]float64, p.closed)
	for k := range scales {
		scales[k] = cal.scale(marks[k], marks[k+1])
	}
	d.arrivals = stream(d.cfg.seed, 2)
	for k := 0; k < p.open; k++ {
		d.openWindow(p.window)
	}

	close(stop)
	bg.Wait()
	if st, err = d.t.stats(); err != nil {
		return nil, err
	}
	d.stats.observe(st, false)
	return scales, nil
}

// closedWindow runs closed-loop window k (-1 for the warm-up) for dur.
func (d *driver) closedWindow(k int, dur time.Duration) {
	end := time.Now().Add(dur)
	join := d.reloadDuring(k >= 0, dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.closedClient(&d.logs[c], k, end)
		}(c)
	}
	wg.Wait()
	join()
}

// closedClient sends the next request as soon as the previous one has
// been answered, until end. In a traced run the odd windows trace their
// requests while the recorder has room, so the even ones give the
// untraced latencies beside them.
func (d *driver) closedClient(lg *clientLog, k int, end time.Time) {
	tracing := d.rec != nil && k%2 == 1
	var buf bytes.Buffer
	for {
		start := time.Now()
		if !start.Before(end) {
			return
		}
		i := d.ticket.Add(1) - 1
		traced := tracing && d.rec.loadRoom()
		spanStart := d.rec.now()
		ok := d.send(lg, i, traced, &buf)
		lat := time.Since(start)
		if traced {
			d.rec.child(-1, "request", "", spanStart, i)
		}
		if k < 0 || !ok {
			continue // warm-up, or a failure already counted
		}
		w := &lg.windows[k]
		if start.Add(lat).Before(end) {
			w.done++
		}
		if traced {
			w.traced = append(w.traced, nanos(lat))
		} else {
			w.lat = append(w.lat, nanos(lat))
		}
	}
}

// send posts request ticket i, accounts for its outcome and reports
// whether it was answered with 200.
func (d *driver) send(lg *clientLog, i int64, traced bool, buf *bytes.Buffer) bool {
	ri := int(i % ringLen)
	spec := &d.in.ring[ri]
	body := d.in.body(spec)
	reqID := int64(-1)
	if traced {
		reqID = i
	}
	status, err := d.t.post(spec.url, body, reqID, buf)
	lg.attempted++
	lg.reqBytes += int64(len(body))
	switch {
	case err != nil:
		lg.fail(err)
		return false
	case status == http.StatusTooManyRequests:
		lg.rejected++
		lg.fail(fmt.Errorf("request %d: %w %d", i, errStatus, status))
		return false
	case status != http.StatusOK:
		lg.fail(fmt.Errorf("request %d: %w %d: %s", i, errStatus, status, buf.Bytes()))
		return false
	}
	lg.ok++
	lg.respBytes += int64(buf.Len())
	if i%int64(d.cfg.checkEvery) == 0 && lg.savedSize < maxSavedBytes {
		lg.saved = append(lg.saved, savedResponse{ring: ri, body: bytes.Clone(buf.Bytes())})
		lg.savedSize += buf.Len()
	}
	return true
}

func (lg *clientLog) fail(err error) {
	lg.failed++
	if lg.firstErr == nil {
		lg.firstErr = err
	}
}

// arrival is one open-loop request: its ticket and when it was due.
type arrival struct {
	ticket int64
	due    time.Time
}

// openBuffer holds arrivals the two senders have not yet taken. It is
// far above what a stall of either sender can queue at the open-loop
// rates; a full buffer would delay the pacer and show in gen_late.
const openBuffer = 1 << 14

// openWindow sends requests for dur at the seeded Poisson arrival times
// of the workload's rate, whatever the responses do, and times each
// from its due time.
func (d *driver) openWindow(dur time.Duration) {
	join := d.reloadDuring(true, dur)
	arrivals := make(chan arrival, openBuffer)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.openSender(&d.logs[c], arrivals)
		}(c)
	}
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(d.arrivals.ExpFloat64() / d.spec.openRate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		pace(due)
		d.genLate = append(d.genLate, float64(time.Since(due))/1e3)
		arrivals <- arrival{ticket: d.ticket.Add(1) - 1, due: due}
	}
	close(arrivals)
	wg.Wait()
	join()
}

// pace waits until due: it sleeps until 2 ms before, then spins on the
// clock. A Go sleep overshoots by ~1 ms on a small Linux VM, which would
// hide a ~30 µs request. Spinning keeps one CPU busy for the open loop;
// yielding with runtime.Gosched instead keeps the pacer runnable on the
// global run queue, where it starves the network poller and turned a
// ~0.1 ms open-loop median into ~2 ms.
func pace(due time.Time) {
	if d := time.Until(due) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
	}
}

func (d *driver) openSender(lg *clientLog, arrivals <-chan arrival) {
	var buf bytes.Buffer
	for a := range arrivals {
		if d.send(lg, a.ticket, false, &buf) {
			lg.open = append(lg.open, nanos(time.Since(a.due)))
		}
	}
}

// reloadDuring posts /reload a quarter into a window of length dur when
// the workload reloads and on is set. The returned function waits for
// it, or cancels it if the window ended first.
func (d *driver) reloadDuring(on bool, dur time.Duration) func() {
	if !on || !d.spec.reload {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.reloadAfter(stop, dur/4)
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// reloadAfter posts /reload after delay unless stop closes first,
// reading /stats just before so the retiring snapshot's counters are
// kept.
func (d *driver) reloadAfter(stop <-chan struct{}, delay time.Duration) {
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-stop:
		return
	case <-timer.C:
	}
	if st, err := d.t.stats(); err == nil {
		d.stats.observe(st, false)
	}
	d.reloads.Add(1)
	if _, err := d.t.call(http.MethodPost, "/reload"); err != nil {
		d.reloadFailed.Add(1)
		fmt.Fprintln(os.Stderr, "bench: reload:", err)
	}
}

// statsEvery is the /stats sampling period of a traced run.
const statsEvery = 100 * time.Millisecond

func (d *driver) sampler(stop <-chan struct{}) {
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if st, err := d.t.stats(); err == nil {
			d.stats.observe(st, true)
		}
	}
}
