package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/serve"
	"medcc/internal/workflow"
)

// workload is one traffic mix. README.md gives the reason for each.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"serve-hot", func(cfg config) (*outcome, error) { return runServing(cfg, serveHot) }},
		{"serve-cold", func(cfg config) (*outcome, error) { return runServing(cfg, serveCold) }},
		{"serve-churn", func(cfg config) (*outcome, error) { return runServing(cfg, serveChurn) }},
		{"campaign", runCampaign},
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads() {
		names = append(names, wl.name)
	}
	return names
}

const (
	algCG    = "critical-greedy"
	algGain3 = "gain3"

	// ringLen is the number of distinct request specs a run cycles
	// through. It is odd, so the oracle's every-64th sample walks the
	// whole ring instead of revisiting the same 128 entries.
	ringLen = 8191

	// inlineBodies is the number of distinct serve-cold request bodies.
	inlineBodies = 64

	zipfS = 1.2
)

// libraryModules are the module counts of the eight library workflows,
// and libraryTypes the VM-type counts of the two library catalogs: 16
// (workflow, catalog) pairs, the largest schedule 502 entries long.
var (
	libraryModules = []int{50, 100, 200, 300, 400, 500, 100, 200}
	libraryTypes   = []int{5, 8}
)

// servingSpec describes one serving workload.
type servingSpec struct {
	// library loads the generated library and primes a critical-greedy
	// staircase for each of its pairs during set-up.
	library bool
	// reload posts /reload once per closed-loop window.
	reload bool
	// openRate is the open-loop arrival rate in requests per second:
	// about a quarter of the wall-clock closed-loop throughput on a 2-CPU
	// VM (serve-hot ~56k/s, serve-cold ~6.8k/s, serve-churn ~20k/s), so
	// the open loop shows queueing well below saturation.
	openRate float64
	// sweepAlgs are the algorithms whose staircases a traced run times
	// with sched.SweepGrid, one sweep per library pair.
	sweepAlgs []string
	// draw picks the next request of the ring.
	draw func(rng *rand.Rand, zipf *rand.Zipf) reqSpec
}

var (
	serveHot = servingSpec{
		library:   true,
		openRate:  14000,
		sweepAlgs: []string{algCG},
		draw: func(rng *rand.Rand, zipf *rand.Zipf) reqSpec {
			return reqSpec{key: int(zipf.Uint64()), alg: algCG, frac: float64(rng.Intn(9)) / 8, grid: true}
		},
	}
	serveCold = servingSpec{
		openRate: 1700,
		draw: func(rng *rand.Rand, _ *rand.Zipf) reqSpec {
			return reqSpec{key: rng.Intn(inlineBodies), alg: algCG, frac: rng.Float64(), inline: true}
		},
	}
	serveChurn = servingSpec{
		library:   true,
		reload:    true,
		openRate:  5000,
		sweepAlgs: []string{algCG, algGain3},
		draw: func(rng *rand.Rand, zipf *rand.Zipf) reqSpec {
			s := reqSpec{key: int(zipf.Uint64()), alg: algCG}
			if rng.Intn(2) == 0 {
				s.frac, s.grid = float64(rng.Intn(9))/8, true
			} else {
				s.frac = rng.Float64()
			}
			if rng.Intn(5) == 0 {
				s.alg = algGain3
			}
			s.sim = rng.Intn(10) == 0
			return s
		},
	}
)

// reqSpec is one request of the ring.
type reqSpec struct {
	key    int     // library pair index, or inline body index
	alg    string  // scheduler registry name
	frac   float64 // budget fraction of [Cmin, Cmax]
	grid   bool    // frac is a dyadic k/8, which the staircase cache holds
	sim    bool    // ask for a simulated trace
	inline bool    // the request carries a container body
	url    string  // path and query
}

// pair is a named library (workflow, catalog) pair.
type pair struct{ wf, cat string }

// instance is a generated inline workflow with its catalog.
type instance struct {
	w   *workflow.Workflow
	cat cloud.Catalog
}

// inputs is everything a serving run generates from its seed.
type inputs struct {
	pairs  []pair
	lib    serve.Library
	insts  []instance
	bodies [][]byte
	ring   []reqSpec
}

// stream returns the seed's k-th independent random stream: 0 for the
// instances, 1 for the request ring, 2 for open-loop arrivals.
func stream(seed int64, k int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*3 + k))
}

// body returns the request body of a spec (nil for query-only specs).
func (in *inputs) body(s *reqSpec) []byte {
	if s.inline {
		return in.bodies[s.key]
	}
	return nil
}

// generateInputs builds a serving workload's instances (written to
// dir for a library) and its request ring.
func generateInputs(spec servingSpec, seed int64, dir string) (*inputs, error) {
	in := &inputs{}
	var err error
	if spec.library {
		if in.lib, in.pairs, err = writeLibrary(dir, seed); err != nil {
			return nil, err
		}
	} else if in.insts, in.bodies, err = inlineInstances(seed); err != nil {
		return nil, err
	}
	rng := stream(seed, 1)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(max(len(in.pairs), 1)-1))
	in.ring = make([]reqSpec, ringLen)
	for i := range in.ring {
		s := spec.draw(rng, zipf)
		s.url = in.url(&s)
		in.ring[i] = s
	}
	return in, nil
}

func (in *inputs) url(s *reqSpec) string {
	u := "/schedule?budget_fraction=" + strconv.FormatFloat(s.frac, 'g', -1, 64) + "&algorithm=" + s.alg
	if !s.inline {
		p := in.pairs[s.key]
		u += "&workflow=" + p.wf + "&catalog=" + p.cat
	}
	if s.sim {
		u += "&simulate=true"
	}
	return u
}

// writeLibrary generates the library workflows (binary container files)
// and catalogs (JSON files) into dir.
func writeLibrary(dir string, seed int64) (serve.Library, []pair, error) {
	lib := serve.Library{Catalogs: map[string]string{}, Workflows: map[string]string{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lib, nil, fmt.Errorf("library directory: %w", err)
	}
	var cats []string
	for i, n := range libraryTypes {
		name := fmt.Sprintf("c%d", i)
		data, err := json.Marshal(gen.Catalog(n, 3, 1))
		if err != nil {
			return lib, nil, err
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return lib, nil, err
		}
		lib.Catalogs[name] = path
		cats = append(cats, name)
	}
	rng := stream(seed, 0)
	var b gen.Builder
	var rb encoding.RecordBuilder
	var pairs []pair
	for i, m := range libraryModules {
		w, err := b.Random(rng, gen.Params{
			Modules: m, Edges: 4 * m, WorkloadMin: 100, WorkloadMax: 1000,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			return lib, nil, err
		}
		data, err := containerBody(&rb, w, nil)
		if err != nil {
			return lib, nil, err
		}
		name := fmt.Sprintf("w%d", i)
		path := filepath.Join(dir, name+".medc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return lib, nil, err
		}
		lib.Workflows[name] = path
		for _, c := range cats {
			pairs = append(pairs, pair{wf: name, cat: c})
		}
	}
	return lib, pairs, nil
}

// inlineInstances generates the serve-cold instances over the paper's
// problem sizes 11-20 (m = 55..100) and encodes each as a container
// body carrying its workflow and catalog.
func inlineInstances(seed int64) ([]instance, [][]byte, error) {
	sizes := gen.PaperProblemSizes()[10:]
	rng := stream(seed, 0)
	var b gen.Builder
	var rb encoding.RecordBuilder
	insts := make([]instance, 0, inlineBodies)
	bodies := make([][]byte, 0, inlineBodies)
	for i := 0; i < inlineBodies; i++ {
		w, cat, err := b.Instance(rng, sizes[i%len(sizes)])
		if err != nil {
			return nil, nil, err
		}
		body, err := containerBody(&rb, w, cat)
		if err != nil {
			return nil, nil, err
		}
		insts = append(insts, instance{w: w.Clone(), cat: append(cloud.Catalog(nil), cat...)})
		bodies = append(bodies, body)
	}
	return insts, bodies, nil
}

// containerBody encodes one record holding w and, when given, cat.
func containerBody(rb *encoding.RecordBuilder, w *workflow.Workflow, cat cloud.Catalog) ([]byte, error) {
	rb.Begin()
	if err := rb.Workflow(w); err != nil {
		return nil, err
	}
	if cat != nil {
		if err := rb.Catalog(cat); err != nil {
			return nil, err
		}
	}
	return rb.AppendRecord(encoding.AppendHeader(nil, 1), false)
}
