package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// shortConfig shrinks a run so all workloads, traced and untraced, fit
// in a few seconds; the oracle checks every response.
func shortConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, 1, 0.3, trace
	cfg.outDir = t.TempDir()
	cfg.setupReps, cfg.checkEvery, cfg.replaySamples = 1, 1, 100
	return cfg
}

// TestWorkloads runs every workload of BENCHMARK.json untraced and
// traced, and checks that each prints exactly its mode's declared
// metrics with their units, answers every request correctly, and that
// the traced run shows the structure each workload exists for.
func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads()))
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			declared := map[string]string{}
			for _, m := range bf.EndToEnd {
				declared[m.Name] = m.Unit
			}
			if trace {
				declared = map[string]string{}
				for _, m := range bf.PerLayer {
					declared[m.Name] = m.Unit
				}
			}
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				res, err := run(shortConfig(t, wl.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(declared))
				}
				for name, unit := range declared {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %q", name, m, unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if trace {
					checkStructure(t, wl.Name, res.Metrics)
				}
			})
		}
	}
}

// checkStructure checks what a traced run must show on each workload.
func checkStructure(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	if workload != "campaign" && v("trace.unattributed_us.p50") == 0 {
		t.Errorf("%s: trace.unattributed_us.p50 not reported", workload)
	}
	switch workload {
	case "serve-hot":
		if r := v("serve.cache_hit_ratio"); r < 0.99 {
			t.Errorf("serve-hot: cache hit ratio %v, want >= 0.99", r)
		}
		if v("sched.solve_us.p50") != 0 {
			t.Errorf("serve-hot: the stage replay solved a request a staircase answers")
		}
	case "serve-cold":
		if v("serve.cache_hit_ratio") != 0 {
			t.Errorf("serve-cold: inline requests hit the cache")
		}
		if v("encoding.decode_us.p50") == 0 || v("workflow.bind_us.p50") == 0 {
			t.Errorf("serve-cold: no decode or bind stage")
		}
	case "serve-churn":
		// A full-length run rebuilds far more than the 16 set-up
		// staircases; a short one under -race may not get that far.
		if v("serve.cache_builds") == 0 {
			t.Errorf("serve-churn: no staircase built during the load")
		}
		if v("sim.replay_us.p50") == 0 || v("sched.solve_us.gain3.p50") == 0 {
			t.Errorf("serve-churn: no simulated replay or gain3 solve")
		}
	case "campaign":
		if v("exper.campaign_ms") == 0 || v("gen.instance_us.p50") == 0 {
			t.Errorf("campaign: no pass or instance timings")
		}
	}
}

// TestMetricTables keeps the metric tables of the program and of
// BENCHMARK.json identical.
func TestMetricTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(mode string, defs []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", mode, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s metric %d: program %s [%s], BENCHMARK.json %s [%s]",
					mode, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// TestRequestSequence checks that the generated request sequence is a
// function of the seed alone.
func TestRequestSequence(t *testing.T) {
	for _, spec := range []servingSpec{serveHot, serveCold, serveChurn} {
		hash := func(seed int64) uint64 {
			in, err := generateInputs(spec, seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return sequenceHash(in, seed, 1000)
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("seed 1 gave two request sequences")
		}
		if a == c {
			t.Errorf("seeds 1 and 2 gave the same request sequence")
		}
	}
}

// TestComputeSelf checks self time against overlapping and protruding
// children.
func TestComputeSelf(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // 20 past the root's end
		{Name: "d", Start: 15, End: 20, Parent: 1},
	}
	computeSelf(spans)
	for i, want := range []int64{100 - 40 - 10, 30 - 5, 20, 30, 5} {
		if spans[i].Self != want {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}

// sequenceHash digests the request sequence of a seed: every request
// body, every ring spec and the first n open-loop arrival gaps.
func sequenceHash(in *inputs, seed int64, n int) uint64 {
	h := fnv.New64a()
	for _, b := range in.bodies {
		_, _ = h.Write(b) // hash.Hash writes never fail
	}
	var buf []byte
	for _, s := range in.ring {
		buf = append(buf[:0], s.url...)
		buf = strconv.AppendInt(buf, int64(s.key), 10)
		_, _ = h.Write(buf)
	}
	rng := stream(seed, 2)
	for i := 0; i < n; i++ {
		buf = strconv.AppendUint(buf[:0], math.Float64bits(rng.ExpFloat64()), 16)
		_, _ = h.Write(buf)
	}
	return h.Sum64()
}
