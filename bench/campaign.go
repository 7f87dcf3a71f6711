package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"medcc/internal/cloud"
	"medcc/internal/dag"
	"medcc/internal/exper"
	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/stats"
	"medcc/internal/workflow"
)

// The paper's evaluation scale: Table IV at 20 budget levels, and the
// Figs. 9-11 campaign at 10 instances per size and 20 levels.
const (
	campaignLevels    = 20
	campaignInstances = 10
)

var (
	errNotFinite  = errors.New("campaign result is not finite")
	errPassDiffer = errors.New("campaign pass differs from the first")
	errNotPooled  = errors.New("scheduler does not support pooled scheduling")
)

// passTimes is one campaign pass's wall times.
type passTimes struct{ tableIV, campaign time.Duration }

func (p passTimes) total() time.Duration { return p.tableIV + p.campaign }

// runCampaign runs TableIV + Campaign passes back to back. Set-up is the
// reference pass, repeated; every later pass must reproduce its results
// bit for bit.
func runCampaign(cfg config) (*outcome, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	o := &outcome{values: map[string]float64{}}
	cal := newCalibration()
	var ref uint64
	var first error
	check := func(dig uint64, err error) {
		o.attempted++
		if err == nil && dig != ref {
			err = errPassDiffer
		}
		if err != nil {
			o.failed++
			if first == nil {
				first = err
			}
		}
	}

	// Every set-up and pass lies between two calibration marks, and
	// runs on a freshly collected heap. The set-ups share the scale of
	// all their marks; each pass gets the scale of its own two.
	setups := make([]float64, 0, cfg.setupReps)
	marks := []int{cal.mark(1)}
	for r := 0; r < cfg.setupReps; r++ {
		start := time.Now()
		dig, _, err := campaignPass(cfg.seed, nil, int64(r))
		if r == 0 {
			if err != nil {
				return nil, err
			}
			ref = dig
		}
		setups = append(setups, time.Since(start).Seconds())
		marks = append(marks, cal.mark(1))
		check(dig, err)
	}
	setupScale := cal.scale(marks...)
	mark := marks[len(marks)-1]

	// In a traced run the odd passes record spans and the even ones
	// give the untraced times beside them.
	var walls, normalized, tracedWalls, tIV, tCamp []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		traced := rec != nil && k%2 == 1
		var r *recorder
		if traced {
			r = rec
		}
		dig, pt, err := campaignPass(cfg.seed, r, int64(k))
		check(dig, err)
		next := cal.mark(1)
		ms := float64(pt.total()) / 1e6
		if traced {
			tracedWalls = append(tracedWalls, ms)
		} else {
			walls = append(walls, ms)
			normalized = append(normalized, ms/cal.scale(mark, next))
		}
		mark = next
		tIV = append(tIV, float64(pt.tableIV)/1e6)
		tCamp = append(tCamp, float64(pt.campaign)/1e6)
	}
	if first != nil {
		fmt.Fprintf(os.Stderr, "bench: %d of %d passes failed; first: %v\n", o.failed, o.attempted, first)
	}

	o.scale = cal.scale()
	v := o.values
	v["bench.calibration_scale"] = o.scale
	v["setup_s"] = stats.Percentile(setups, 50) / setupScale
	v["throughput_rps"] = 1e3 / stats.Mean(normalized)
	v["p50_us"] = stats.Percentile(normalized, 50) * 1e3
	v["p99_us"] = stats.Percentile(walls, 99) * 1e3
	v["peak_rss_mb"] = peakRSSMB()
	v["exper.tableiv_ms"] = stats.Percentile(tIV, 50)
	v["exper.campaign_ms"] = stats.Percentile(tCamp, 50)
	if rec == nil {
		return o, nil
	}
	if len(tracedWalls) > 0 {
		v["trace.overhead_pct"] = (stats.Percentile(tracedWalls, 50)/stats.Percentile(walls, 50) - 1) * 100
	}
	if err := replayCampaign(cfg.seed, rec); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	spanMetrics(v, spans)
	var serial float64
	for _, d := range spanDurations(spans, "instance", "", false) {
		serial += d
	}
	v["exper.parallel_efficiency"] = serial / 1e3 / (stats.Percentile(walls, 50) * float64(runtime.GOMAXPROCS(0)))
	return o, writeSpans(tracePath(cfg), spans)
}

// campaignPass runs one TableIV + Campaign pass and digests every
// result float by its bits. With rec non-nil it records the pass as a
// root span over one span per experiment.
func campaignPass(seed int64, rec *recorder, req int64) (uint64, passTimes, error) {
	var pt passTimes
	root := rec.add(span{Name: "pass", Start: rec.now(), Parent: -1, Req: req})
	defer rec.end(root)

	t, s := time.Now(), rec.now()
	rows, err := exper.TableIV(seed, campaignLevels)
	if err != nil {
		return 0, pt, err
	}
	pt.tableIV = time.Since(t)
	rec.child(root, "exper.tableiv", "", s, req)

	t, s = time.Now(), rec.now()
	cells, err := exper.Campaign(seed, campaignInstances, campaignLevels)
	if err != nil {
		return 0, pt, err
	}
	pt.campaign = time.Since(t)
	rec.child(root, "exper.campaign", "", s, req)

	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) error {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return errNotFinite
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
		return nil
	}
	for _, r := range rows {
		for _, x := range append([]float64{r.CG, r.GAIN, r.GAINWRF, r.ImpPct, r.ImpWRFPct, r.Ratio}, r.PerLvl...) {
			if err := put(x); err != nil {
				return 0, pt, fmt.Errorf("Table IV size %d: %w", r.Index, err)
			}
		}
	}
	for _, c := range cells {
		if err := put(c.AvgImp); err != nil {
			return 0, pt, fmt.Errorf("campaign cell (%d, %d): %w", c.SizeIdx, c.Level, err)
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(c.SizeIdx)<<32|uint64(c.Level))
		_, _ = h.Write(buf[:])
	}
	return h.Sum64(), pt, nil
}

// replayCampaign re-runs one pass's work serially: every instance the
// pass draws (the exper seeding: item k of a stream from seed + k ×
// 1,000,003), bound and solved cold at each budget level by the pass's
// algorithms, with spans for generation, binding, each solve and each
// MED evaluation under one root per instance. The pass itself sweeps
// each grid warm, so the replay measures the layers, not the pass.
func replayCampaign(seed int64, rec *recorder) error {
	sizes := gen.PaperProblemSizes()
	var b gen.Builder
	var m *workflow.Matrices
	var times []float64
	algs := map[string]sched.IntoScheduler{}
	dst := map[string]workflow.Schedule{}
	item := func(req int64, rng *rand.Rand, size gen.ProblemSize, names []string) error {
		root := rec.add(span{Name: "instance", Start: rec.now(), Parent: -1, Req: req})
		defer rec.end(root)
		t := rec.now()
		w, cat, err := b.Instance(rng, size)
		if err != nil {
			return err
		}
		rec.child(root, "gen.instance", "", t, req)
		t = rec.now()
		if m, err = w.BuildMatricesInto(cat, cloud.HourlyRoundUp, m); err != nil {
			return err
		}
		cmin, cmax := m.BudgetRange(w)
		rec.child(root, "workflow.bind", "", t, req)
		for k := 1; k <= campaignLevels; k++ {
			budget := cmin + float64(k)/campaignLevels*(cmax-cmin)
			for _, name := range names {
				alg, err := engine(algs, name)
				if err != nil {
					return err
				}
				t = rec.now()
				s, err := alg.ScheduleInto(dst[name], w, m, budget)
				if err != nil {
					return err
				}
				dst[name] = s
				rec.child(root, "sched.solve", name, t, req)
				t = rec.now()
				times = m.TimesInto(s, times)
				if _, err := dag.NewTiming(w.Graph(), times, nil); err != nil {
					return err
				}
				rec.child(root, "dag.med", "", t, req)
			}
		}
		return nil
	}
	const stride = 1_000_003
	req := int64(0)
	for si, size := range sizes {
		rng := rand.New(rand.NewSource(seed + int64(si)*stride))
		if err := item(req, rng, size, []string{algCG, algGain3, "gain3-wrf"}); err != nil {
			return err
		}
		req++
	}
	for si, size := range sizes {
		for inst := 0; inst < campaignInstances; inst++ {
			rng := rand.New(rand.NewSource(seed + int64(si)*104729 + int64(inst)*stride))
			if err := item(req, rng, size, []string{algCG, algGain3}); err != nil {
				return err
			}
			req++
		}
	}
	return nil
}
