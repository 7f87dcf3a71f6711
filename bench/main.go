// Command bench is the repository benchmark. One process runs one
// workload: it generates every input from the seed, hosts the scheduling
// service (serve.New + Handler) on a loopback port and drives it with two
// HTTP clients (serve-hot, serve-cold, serve-churn), or runs the paper's
// Table IV + Figs. 9-11 campaign pass after pass (campaign). It checks
// the outputs against direct sched.Run / sim.Replayer results and prints
// one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 the run records spans and prints the per-layer set. Run
// it from the repository root through run.sh, which builds it first:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 28 --trace 0
//
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// config is one benchmark run. The CLI sets the first four fields; the
// remaining ones default for the CLI and are shrunk by the self-test so
// every workload fits in a short test.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	outDir        string // library files and span files go here
	setupReps     int    // set-ups per run; setup_s is their median
	checkEvery    int    // the oracle checks every checkEvery-th response
	replaySamples int    // requests replayed stage by stage in a traced run
}

func defaultConfig() config {
	return config{
		outDir:        ".bench_build",
		setupReps:     9,
		checkEvery:    64,
		replaySamples: 2000,
	}
}

var errUsage = errors.New("usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>")

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 28, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, fmt.Errorf("%w: %w", errUsage, err)
	}
	if _, ok := lookupWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("%w: unknown workload %q", errUsage, cfg.workload)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("%w: --seconds must be positive", errUsage)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return cfg, fmt.Errorf("%w: --trace must be 0 or 1", errUsage)
	}
	cfg.trace = *traceFlag == 1
	return cfg, nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd is the metric set of an untraced run. Every workload reports
// every one of them, and none of them can be 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the metric set of a traced run. A metric that does not
// apply to a workload (no HTTP on campaign, no solve on serve-hot) is 0.
var perLayer = []metricDef{
	{"p99_us", "us"},
	{"open_p50_us", "us"},
	{"client.closed_samples", "count"},
	{"client.transport_us.p50", "us"},
	{"client.response_bytes.mean", "bytes"},
	{"client.gen_late_us.p50", "us"},
	{"client.gen_late_us.p99", "us"},
	{"serve.http_us.p50", "us"},
	{"serve.http_us.p99", "us"},
	{"serve.frontend_us.p50", "us"},
	{"serve.inproc_us.p50", "us"},
	{"serve.overhead_us.p50", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_builds", "count"},
	{"serve.cache_evictions", "count"},
	{"serve.rejected_429", "count"},
	{"serve.queue_len.mean", "count"},
	{"serve.busy_fraction.mean", "ratio"},
	{"encoding.decode_us.p50", "us"},
	{"encoding.request_bytes.mean", "bytes"},
	{"workflow.bind_us.p50", "us"},
	{"sched.solve_us.p50", "us"},
	{"sched.solve_us.critical-greedy.p50", "us"},
	{"sched.solve_us.gain3.p50", "us"},
	{"dag.med_us.p50", "us"},
	{"sched.sweepgrid_ms.p50", "ms"},
	{"sim.replay_us.p50", "us"},
	{"exper.tableiv_ms", "ms"},
	{"exper.campaign_ms", "ms"},
	{"gen.instance_us.p50", "us"},
	{"exper.parallel_efficiency", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_us.p50", "us"},
	{"bench.calibration_scale", "ratio"},
}

// outcome is what a workload run measured: every metric it could compute
// by name, the request accounting, and the run's calibration scale. The
// end-to-end metrics are already at reference speed; the per-layer ones
// are in wall-clock units.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	scale     float64
}

// report selects the metric set of the run's mode from an outcome and
// brings per-layer timings and rates to the calibration kernel's
// reference speed with the run's median scale (see calibrate.go).
func report(cfg config, o *outcome) result {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	scale := 1.0
	if cfg.trace && o.scale > 0 {
		scale = o.scale
	}
	for _, d := range defs {
		v := o.values[d.name]
		switch d.unit {
		case "us", "ms", "s":
			v /= scale
		case "1/s":
			v *= scale
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

func run(cfg config) (result, error) {
	wl, ok := lookupWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("output directory: %w", err)
	}
	o, err := wl.run(cfg)
	if err != nil {
		return result{}, err
	}
	return report(cfg, o), nil
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}
