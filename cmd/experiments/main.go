// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	experiments                      # run everything at paper scale
//	experiments -only tableIV        # one experiment
//	experiments -quick               # reduced instance counts (CI-sized)
//	experiments -seed 42             # change the campaign seed
//	experiments -writecorpus dir     # freeze the campaign instance sets as binary corpora
//	experiments -corpus dir          # run tableIV/fig8-11/validation from frozen corpora
//
// Output is the same row/series layout the paper reports, printed to
// stdout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"medcc/internal/exper"
	"medcc/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only   = fs.String("only", "", "run a single experiment: tableII|fig6|tableIII|fig7|tableIV|fig8|fig9|fig10|fig11|tableVII|fig15|ablation|validation|provisioning|multicloud|clustering|adaptive|capacity|runtime")
		quick  = fs.Bool("quick", false, "reduced instance counts for a fast pass")
		seed   = fs.Int64("seed", exper.DefaultSeed, "campaign seed")
		csvDir = fs.String("csvdir", "", "also write fig6/tableIV/campaign/tableVII CSV files into this directory")
		optExt = fs.Bool("optext", false, "extend the optimality studies (tableIII, fig7) to the larger exact-baseline sizes (m=10..14)")
		corpus = fs.String("corpus", "", "run tableIV/fig8, fig9-11, and validation from the binary corpora in this directory (see -writecorpus)")
		wcorp  = fs.String("writecorpus", "", "write the campaign instance sets as binary corpora into this directory and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Paper-scale parameters, with a CI-sized -quick variant.
	tabIIIInst, fig7Inst, levels, campInst := 5, 100, 20, 10
	if *quick {
		tabIIIInst, fig7Inst, levels, campInst = 2, 10, 5, 2
	}

	if *wcorp != "" {
		return writeCorpora(out, *wcorp, *seed, campInst)
	}

	want := func(name string) bool { return *only == "" || strings.EqualFold(*only, name) }
	ran := false

	writeCSV := func(name string, emit func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	if want("tableII") {
		ran = true
		fmt.Fprintln(out, "== Table II: Critical-Greedy schedules of the numerical example ==")
		rows, err := exper.TableII()
		if err != nil {
			return err
		}
		if err := exper.RenderTableII(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("fig6") {
		ran = true
		fmt.Fprintln(out, "== Fig. 6: MED vs budget on the numerical example ==")
		pts, err := exper.Fig6()
		if err != nil {
			return err
		}
		if err := exper.RenderFig6(out, pts); err != nil {
			return err
		}
		if err := writeCSV("fig6.csv", func(w io.Writer) error { return exper.WriteFig6CSV(w, pts) }); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("tableIII") {
		ran = true
		fmt.Fprintln(out, "== Table III: Critical-Greedy vs optimal on small instances ==")
		rows, err := exper.TableIII(*seed, tabIIIInst)
		if err != nil {
			return err
		}
		if err := exper.RenderTableIII(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if *optExt {
			fmt.Fprintln(out, "== Table III (extended): Critical-Greedy vs optimal at m=10..14 ==")
			rows, err := exper.TableIIIAt(*seed, tabIIIInst, exper.ExtendedOptimalitySizes())
			if err != nil {
				return err
			}
			if err := exper.RenderTableIII(out, rows); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if want("fig7") {
		ran = true
		fmt.Fprintf(out, "== Fig. 7: %% of instances reaching the optimum (%d instances/size) ==\n", fig7Inst)
		rows, err := exper.Fig7(*seed, fig7Inst)
		if err != nil {
			return err
		}
		if err := exper.RenderFig7(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if *optExt {
			// The full extended sweep at m=14 multiplies the exact-solver
			// work by ~3^7 per instance over the paper's largest size, so
			// the Fig. 7 extension stops at m=12.
			ext := exper.ExtendedOptimalitySizes()[:2]
			fmt.Fprintf(out, "== Fig. 7 (extended): %% reaching the optimum at m=10..12 (%d instances/size) ==\n", fig7Inst)
			rows, err := exper.Fig7At(*seed, fig7Inst, ext)
			if err != nil {
				return err
			}
			if err := exper.RenderFig7(out, rows); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	var tableIV []exper.TableIVRow
	if want("tableIV") || want("fig8") {
		rows, err := tableIVRows(*corpus, *seed, levels)
		if err != nil {
			return err
		}
		tableIV = rows
	}
	if want("tableIV") {
		ran = true
		fmt.Fprintf(out, "== Table IV: average MED of CG and GAIN3 across %d budget levels ==\n", levels)
		if err := exper.RenderTableIV(out, tableIV); err != nil {
			return err
		}
		if err := writeCSV("tableIV.csv", func(w io.Writer) error { return exper.WriteTableIVCSV(w, tableIV) }); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("fig8") {
		ran = true
		fmt.Fprintln(out, "== Fig. 8: average MED improvement per problem size (Table IV data) ==")
		if err := exper.RenderFig8(out, tableIV); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("fig9") || want("fig10") || want("fig11") {
		ran = true
		fmt.Fprintf(out, "== Figs. 9-11 campaign: %d instances x %d budget levels per size ==\n", campInst, levels)
		cells, err := campaignCells(*corpus, *seed, campInst, levels)
		if err != nil {
			return err
		}
		if want("fig9") {
			fmt.Fprintln(out, "-- Fig. 9: average improvement per problem size --")
			if err := exper.RenderFig9(out, exper.Fig9(cells)); err != nil {
				return err
			}
		}
		if want("fig10") {
			fmt.Fprintln(out, "-- Fig. 10: average improvement per budget level --")
			if err := exper.RenderFig10(out, exper.Fig10(cells)); err != nil {
				return err
			}
		}
		if want("fig11") {
			fmt.Fprintln(out, "-- Fig. 11: improvement grid (size x budget level) --")
			if err := exper.RenderFig11(out, cells); err != nil {
				return err
			}
		}
		if err := writeCSV("campaign.csv", func(w io.Writer) error { return exper.WriteCampaignCSV(w, cells) }); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("tableVII") || want("fig15") {
		ran = true
		rows, err := exper.TableVII()
		if err != nil {
			return err
		}
		if want("tableVII") {
			fmt.Fprintln(out, "== Table VII: WRF workflow schedules on the simulated testbed ==")
			if err := exper.RenderTableVII(out, rows); err != nil {
				return err
			}
			fmt.Fprintln(out, "-- published rows (for comparison) --")
			if err := exper.RenderTableVII(out, exper.PublishedTableVII()); err != nil {
				return err
			}
		}
		if want("fig15") {
			fmt.Fprintln(out, "== Fig. 15: CG vs GAIN3 on the WRF workflow ==")
			if err := exper.RenderFig15(out, exper.Fig15(rows)); err != nil {
				return err
			}
		}
		if err := writeCSV("tableVII.csv", func(w io.Writer) error { return exper.WriteTableVIICSV(w, rows) }); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("ablation") {
		ran = true
		fmt.Fprintln(out, "== Ablation A1: candidate set x criterion grid ==")
		rows, err := exper.Ablation(*seed, gen.ProblemSize{M: 40, E: 434, N: 6}, campInst, levels)
		if err != nil {
			return err
		}
		if err := exper.RenderAblation(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("validation") {
		ran = true
		fmt.Fprintln(out, "== Validation A2: analytic model vs discrete-event simulator ==")
		rows, err := validationRows(*corpus, *seed)
		if err != nil {
			return err
		}
		if err := exper.RenderValidation(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("provisioning") {
		ran = true
		fmt.Fprintln(out, "== Extension A3: one-to-one mapping vs HEFT on fixed pools ==")
		rows, err := exper.Provisioning(8)
		if err != nil {
			return err
		}
		if err := exper.RenderProvisioning(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("multicloud") {
		ran = true
		fmt.Fprintln(out, "== Extension A4 (paper future work): multi-cloud scheduling ==")
		rows, err := exper.MultiCloud(10)
		if err != nil {
			return err
		}
		if err := exper.RenderMultiCloud(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("runtime") {
		ran = true
		fmt.Fprintln(out, "== Extension A8: scheduler wall time across problem sizes ==")
		reps := 20
		if *quick {
			reps = 2
		}
		algs := []string{"critical-greedy", "gain3", "gain3-wrf", "budget-dist"}
		rows, err := exper.RuntimeScaling(*seed, algs, reps)
		if err != nil {
			return err
		}
		if err := exper.RenderRuntime(out, algs, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("capacity") {
		ran = true
		fmt.Fprintln(out, "== Extension A7: testbed capacity vs queueing on a wide workflow ==")
		rows, err := exper.TestbedCapacity(*seed, 10, 6)
		if err != nil {
			return err
		}
		if err := exper.RenderCapacity(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("adaptive") {
		ran = true
		fmt.Fprintln(out, "== Extension A6: static vs adaptive scheduling under runtime noise ==")
		inst, seeds := 5, 10
		if *quick {
			inst, seeds = 2, 3
		}
		rows, err := exper.Adaptive(*seed, gen.ProblemSize{M: 20, E: 80, N: 5}, inst, seeds)
		if err != nil {
			return err
		}
		if err := exper.RenderAdaptive(out, rows); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if want("clustering") {
		ran = true
		fmt.Fprintln(out, "== Extension A5: clustering preprocessing on the full WRF graph ==")
		rows, err := exper.Clustering()
		if err != nil {
			return err
		}
		if err := exper.RenderClustering(out, rows); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *only)
	}
	return nil
}

// validationSize is the A2 validation problem size (DESIGN.md), shared
// by the regenerate path, -writecorpus, and the corpus-backed run.
var validationSize = gen.ProblemSize{M: 30, E: 269, N: 6}

// validationInstances is the A2 validation instance count.
const validationInstances = 10

// Corpus file names inside a -corpus / -writecorpus directory.
const (
	tableIVCorpus    = "tableiv.medc"
	campaignCorpus   = "campaign.medc"
	validationCorpus = "validation.medc"
)

// writeCorpora freezes the Table IV, Figs. 9-11, and A2 validation
// instance sets as binary corpora. The campaign corpus is shaped by the
// instance count in effect (-quick changes it), so runs against it must
// use the same flag — the runners verify the shape and refuse otherwise.
func writeCorpora(out io.Writer, dir string, seed int64, campInst int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, emit func(io.Writer) (int, error)) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		n, err := emit(bw)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: %d instances\n", filepath.Join(dir, name), n)
		return nil
	}
	if err := write(tableIVCorpus, func(w io.Writer) (int, error) {
		return exper.WriteTableIVCorpus(w, seed, true)
	}); err != nil {
		return err
	}
	if err := write(campaignCorpus, func(w io.Writer) (int, error) {
		return exper.WriteCampaignCorpus(w, seed, campInst, true)
	}); err != nil {
		return err
	}
	return write(validationCorpus, func(w io.Writer) (int, error) {
		return exper.WriteValidationCorpus(w, seed, validationSize, validationInstances, true)
	})
}

// openCorpus opens one corpus file for streaming.
func openCorpus(dir, name string) (*os.File, *bufio.Reader, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, err
	}
	return f, bufio.NewReaderSize(f, 1<<16), nil
}

func tableIVRows(corpusDir string, seed int64, levels int) ([]exper.TableIVRow, error) {
	if corpusDir == "" {
		return exper.TableIV(seed, levels)
	}
	f, br, err := openCorpus(corpusDir, tableIVCorpus)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return exper.TableIVFromCorpus(br, levels)
}

func campaignCells(corpusDir string, seed int64, instances, levels int) ([]exper.CampaignCell, error) {
	if corpusDir == "" {
		return exper.Campaign(seed, instances, levels)
	}
	f, br, err := openCorpus(corpusDir, campaignCorpus)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return exper.CampaignFromCorpus(br, instances, levels)
}

func validationRows(corpusDir string, seed int64) ([]exper.ValidationRow, error) {
	if corpusDir == "" {
		return exper.SimValidation(seed, validationSize, validationInstances)
	}
	f, br, err := openCorpus(corpusDir, validationCorpus)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return exper.SimValidationFromCorpus(br, seed, validationSize, validationInstances)
}
