package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"medcc/internal/stats"
)

var errPrime = errors.New("staircases not built in time")

// primeTimeout bounds the wait for the set-up staircases.
const primeTimeout = 60 * time.Second

// runServing runs one serving workload: set-up (repeated, median
// reported), load, the oracle over the saved responses, and in a traced
// run the stage replay.
func runServing(cfg config, spec servingSpec) (*outcome, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	cal := newCalibration()
	var t *target
	var in *inputs
	setups := make([]float64, 0, cfg.setupReps)
	var marks []int
	for r := 0; r < cfg.setupReps; r++ {
		if t != nil {
			t.close()
		}
		marks = append(marks, cal.mark(1))
		start := time.Now()
		var err error
		if t, in, err = setUp(cfg, spec, r, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	setupScale := cal.scale(append(marks, cal.mark(1))...)

	d := &driver{cfg: cfg, spec: spec, t: t, in: in, rec: rec}
	p := planFor(cfg.seconds, cfg.trace)
	scales, err := d.load(p, cal)
	if err != nil {
		return nil, err
	}
	o := d.outcome(p, scales)
	o.values["setup_s"] = stats.Percentile(setups, 50) / setupScale
	o.scale = cal.scale()
	o.values["bench.calibration_scale"] = o.scale

	orc := newOracle(t.srv, in)
	o.failed += orc.verify(d.logs[:])
	if rec == nil {
		return o, nil
	}
	attempted, failed, err := replayStages(d, orc)
	if err != nil {
		return nil, err
	}
	o.attempted += attempted
	o.failed += failed
	spans := rec.snapshot()
	spanMetrics(o.values, spans)
	return o, writeSpans(tracePath(cfg), spans)
}

// setUp generates the inputs, starts the service and, for a library
// workload, primes one critical-greedy staircase per pair.
func setUp(cfg config, spec servingSpec, rep int, rec *recorder) (*target, *inputs, error) {
	dir := ""
	if spec.library {
		dir = filepath.Join(cfg.outDir, fmt.Sprintf("lib-%d-%d", os.Getpid(), rep))
	}
	in, err := generateInputs(spec, cfg.seed, dir)
	var t *target
	if err == nil {
		t, err = startTarget(in.lib, dir, rec)
	}
	if err == nil && spec.library {
		if err = prime(t, in); err != nil {
			t.close()
		}
	}
	if err != nil {
		_ = os.RemoveAll(dir) // best effort; the set-up error is the one to report
		return nil, nil, err
	}
	return t, in, nil
}

// prime requests every pair once (a miss, which builds the staircase
// after answering) and polls /stats until all of them are built.
func prime(t *target, in *inputs) error {
	var buf bytes.Buffer
	for _, p := range in.pairs {
		url := "/schedule?budget_fraction=0.5&algorithm=" + algCG + "&workflow=" + p.wf + "&catalog=" + p.cat
		status, err := t.post(url, nil, -1, &buf)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("prime %s: %w %d: %s", url, errStatus, status, buf.Bytes())
		}
	}
	deadline := time.Now().Add(primeTimeout)
	for {
		st, err := t.stats()
		if err != nil {
			return err
		}
		if st.CacheBuilds >= int64(len(in.pairs)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d of %d", errPrime, st.CacheBuilds, len(in.pairs))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// outcome turns the client logs and the server counters into metrics.
// The end-to-end throughput and p50 are brought to reference speed
// window by window with scales; everything else stays in wall-clock
// units for report to scale.
func (d *driver) outcome(p plan, scales []float64) *outcome {
	o := &outcome{values: map[string]float64{}}
	v := o.values
	v["peak_rss_mb"] = peakRSSMB() // before the analysis below allocates
	var ok, respBytes, reqBytes, rejected int64
	for k := range d.logs {
		lg := &d.logs[k]
		o.attempted += lg.attempted
		o.failed += lg.failed
		ok += lg.ok
		respBytes += lg.respBytes
		reqBytes += lg.reqBytes
		rejected += lg.rejected
		if lg.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: client %d: %d failed; first: %v\n", k, lg.failed, lg.firstErr)
		}
	}
	o.attempted += d.reloads.Load()
	o.failed += d.reloadFailed.Load()

	var rps, normalized []float64
	var lats, tracedLats, openLats []uint32
	for k := 0; k < p.closed; k++ {
		var done int64
		for c := range d.logs {
			w := &d.logs[c].windows[k]
			done += w.done
			lats = append(lats, w.lat...)
			tracedLats = append(tracedLats, w.traced...)
			for _, ns := range w.lat {
				normalized = append(normalized, float64(ns)/1e3/scales[k])
			}
		}
		rps = append(rps, float64(done)/p.window.Seconds()*scales[k])
	}
	for c := range d.logs {
		openLats = append(openLats, d.logs[c].open...)
	}
	v["throughput_rps"] = stats.Percentile(rps, 50)
	v["p50_us"] = stats.Percentile(normalized, 50)
	v["p99_us"] = quantileUS(lats, 99)
	v["open_p50_us"] = quantileUS(openLats, 50)
	v["client.closed_samples"] = float64(len(lats))
	v["client.gen_late_us.p50"] = stats.Percentile(d.genLate, 50)
	v["client.gen_late_us.p99"] = stats.Percentile(d.genLate, 99)
	v["client.response_bytes.mean"] = ratio(respBytes, ok)
	v["encoding.request_bytes.mean"] = ratio(reqBytes, o.attempted)
	v["serve.rejected_429"] = float64(rejected)
	if len(tracedLats) > 0 {
		v["trace.overhead_pct"] = (quantileUS(tracedLats, 50)/quantileUS(lats, 50) - 1) * 100
	}

	hits, misses, builds, evictions := d.stats.totals()
	v["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["serve.cache_builds"] = float64(builds)
	v["serve.cache_evictions"] = float64(evictions)
	v["serve.queue_len.mean"] = stats.Mean(d.stats.queue)
	v["serve.busy_fraction.mean"] = stats.Mean(d.stats.busy)
	return o
}

// quantileUS sorts nanosecond latencies in place and returns their p-th
// percentile in microseconds, interpolated as stats.Percentile does.
func quantileUS(ns []uint32, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	pos := p / 100 * float64(len(ns)-1)
	lo := int(pos)
	hi := min(lo+1, len(ns)-1)
	frac := pos - float64(lo)
	return (float64(ns[lo])*(1-frac) + float64(ns[hi])*frac) / 1e3
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanMetrics derives the per-layer timings from a traced run's spans.
// Each replayed request has a "replay" root whose children are the
// stages it took; the part of the root they cover is its stage time,
// and its Server.Schedule time minus the stages Schedule runs (all but
// decode) is the service's own overhead. serve.frontend is what HTTP
// adds to Schedule and decode; trace.unattributed is the part of the
// HTTP time no stage span explains.
func spanMetrics(v map[string]float64, spans []span) {
	p50 := func(name, alg string) float64 {
		return stats.Percentile(spanDurations(spans, name, alg, false), 50)
	}
	decode, inproc := p50("encoding.decode", ""), p50("serve.inproc", "")
	v["encoding.decode_us.p50"] = decode
	v["workflow.bind_us.p50"] = p50("workflow.bind", "")
	v["sched.solve_us.p50"] = p50("sched.solve", "")
	v["sched.solve_us.critical-greedy.p50"] = p50("sched.solve", algCG)
	v["sched.solve_us.gain3.p50"] = p50("sched.solve", algGain3)
	v["dag.med_us.p50"] = p50("dag.med", "")
	v["sim.replay_us.p50"] = p50("sim.replay", "")
	v["sched.sweepgrid_ms.p50"] = p50("sched.sweepgrid", "") / 1e3
	v["gen.instance_us.p50"] = p50("gen.instance", "")
	v["serve.inproc_us.p50"] = inproc

	inprocBy := map[int64]int64{}
	decodeBy := map[int]int64{}
	for i := range spans {
		switch s := &spans[i]; s.Name {
		case "serve.inproc":
			inprocBy[s.Req] = s.dur()
		case "encoding.decode":
			decodeBy[s.Parent] += s.dur()
		}
	}
	var covered, overhead []float64
	for i := range spans {
		s := &spans[i]
		if s.Name != "replay" {
			continue
		}
		c := s.dur() - s.Self
		covered = append(covered, float64(c)/1e3)
		if in, ok := inprocBy[s.Req]; ok {
			overhead = append(overhead, float64(in-(c-decodeBy[i]))/1e3)
		}
	}
	v["serve.overhead_us.p50"] = stats.Percentile(overhead, 50)

	http := spanDurations(spans, "serve.http", "", false)
	if len(http) == 0 {
		return
	}
	httpP50 := stats.Percentile(http, 50)
	v["serve.http_us.p50"] = httpP50
	v["serve.http_us.p99"] = stats.Percentile(http, 99)
	v["serve.frontend_us.p50"] = httpP50 - inproc - decode
	v["trace.unattributed_us.p50"] = httpP50 - stats.Percentile(covered, 50)
	v["client.transport_us.p50"] = stats.Percentile(spanDurations(spans, "request", "", true), 50)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	// Without procfs, the memory the runtime obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
