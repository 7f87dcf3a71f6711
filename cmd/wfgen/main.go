// Command wfgen emits random workflow instances and VM catalogs as JSON,
// in the format cmd/medcc consumes — or, in corpus mode, streams many
// instances into one compact binary corpus file (see internal/encoding).
//
// Usage:
//
//	wfgen -m 20 -e 80 -n 5 -seed 1 -out wf.json -catout cat.json
//	wfgen -topology montage -width 8 -out wf.json
//	wfgen -corpus corpus.medc -count 100000 -seed 1 [-compress] [converted.json converted.xml ...]
//
// Corpus mode generates -count instances cycling through the paper's 20
// problem sizes, then appends any positional-argument files (DAX XML or
// WfCommons JSON, format auto-detected) converted to workflow records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/ingest"
	"medcc/internal/workflow"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wfgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wfgen", flag.ContinueOnError)
	var (
		m        = fs.Int("m", 20, "number of computing modules")
		e        = fs.Int("e", 80, "number of dependency edges")
		n        = fs.Int("n", 5, "number of VM types in the catalog")
		seed     = fs.Int64("seed", 1, "random seed")
		wlMin    = fs.Float64("wlmin", 100, "minimum module workload")
		wlMax    = fs.Float64("wlmax", 1000, "maximum module workload")
		topology = fs.String("topology", "random", "random | pipeline | forkjoin | layered | montage | cybershake | epigenomics")
		width    = fs.Int("width", 8, "width for non-random topologies")
		depth    = fs.Int("depth", 4, "depth for the layered topology")
		out      = fs.String("out", "", "workflow output file (default stdout)")
		catOut   = fs.String("catout", "", "catalog output file (omit to skip)")
		corpus   = fs.String("corpus", "", "write a binary instance corpus to this file instead of JSON")
		count    = fs.Int("count", 0, "corpus mode: number of generated instances (paper sizes, round-robin)")
		compress = fs.Bool("compress", false, "corpus mode: DEFLATE-compress chunks that shrink")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpus != "" {
		return runCorpus(*corpus, *count, *seed, *n, *compress, fs.Args())
	}
	rng := rand.New(rand.NewSource(*seed))

	var w *workflow.Workflow
	var err error
	switch *topology {
	case "random":
		w, err = gen.Random(rng, gen.Params{
			Modules: *m, Edges: *e,
			WorkloadMin: *wlMin, WorkloadMax: *wlMax,
			DataSizeMax: 10, AddEntryExit: true,
		})
		if err != nil {
			return err
		}
	case "pipeline":
		w = gen.Pipeline(rng, *m, *wlMin, *wlMax)
	case "forkjoin":
		w = gen.ForkJoin(rng, *width, *wlMin, *wlMax)
	case "layered":
		w = gen.Layered(rng, *depth, *width, *wlMin, *wlMax)
	case "montage":
		w = gen.MontageLike(rng, *width)
	case "cybershake":
		w = gen.CyberShakeLike(rng, *width)
	case "epigenomics":
		w = gen.EpigenomicsLike(rng, *width)
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}

	// Write nothing medcc rejects, such as a -width 0 fork-join or -n 0.
	if err := w.Validate(); err != nil {
		return fmt.Errorf("-topology %s: %w", *topology, err)
	}
	var cat cloud.Catalog
	if *catOut != "" {
		if cat, err = catalog(*n); err != nil {
			return err
		}
	}
	if err := writeJSON(*out, w); err != nil {
		return err
	}
	if stats, err := w.ComputeStats(); err == nil {
		fmt.Fprintf(os.Stderr, "generated %d modules (%d schedulable), %d edges, depth %d, width %d, CCR %.3f\n",
			stats.Modules, stats.Schedulable, stats.Dependencies, stats.Depth, stats.Width, stats.CCR)
	}
	if *catOut != "" {
		if err := writeJSON(*catOut, cat); err != nil {
			return err
		}
	}
	return nil
}

// catalog returns the simulation catalog of n VM types, or the error
// Catalog.Validate finds in it: for n <= 0, that it is empty.
func catalog(n int) (cloud.Catalog, error) {
	cat := cloud.DiminishingCatalog(max(n, 0), 3, 1, gen.SimulationGamma)
	if err := cat.Validate(); err != nil {
		return nil, fmt.Errorf("-n %d: %w", n, err)
	}
	return cat, nil
}

// runCorpus streams count generated instances (plus any converted
// files) into one binary corpus. Generation cycles the paper's 20
// problem sizes with a pooled builder, so memory stays flat no matter
// how many instances are requested.
func runCorpus(path string, count int, seed int64, n int, compress bool, converts []string) error {
	convCat, err := catalog(n)
	if err != nil && len(converts) > 0 {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw, err := encoding.NewCorpusWriter(f, compress)
	if err != nil {
		return err
	}
	var b gen.Builder
	sizes := gen.PaperProblemSizes()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		size := sizes[i%len(sizes)]
		wf, cat, err := b.Instance(rng, size)
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		err = cw.WriteInstance(wf, cat, encoding.InstanceInfo{
			Seed: seed, Index: int64(i), Kind: encoding.KindGenerated,
			M: uint32(size.M), E: uint32(size.E), N: uint32(size.N),
		})
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
	}
	for i, p := range converts {
		wf, _, format, err := ingest.File(p, ingest.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		kind := encoding.KindWfCommons
		if format == ingest.FormatDAX {
			kind = encoding.KindDAX
		}
		err = cw.WriteInstance(wf, convCat, encoding.InstanceInfo{
			Index: int64(i), Kind: kind,
			M: uint32(wf.NumModules()), E: uint32(wf.NumDependencies()), N: uint32(n),
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "corpus %s: %d records (%d generated, %d converted), %d bytes\n",
		path, cw.Count(), count, len(converts), st.Size())
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
