// medcc-lint runs the project's static-analysis suite (internal/analysis)
// over the whole module and reports invariant violations as
// file:line:col diagnostics, exiting non-zero when any survive
// suppression. It needs nothing beyond the standard library and the Go
// toolchain:
//
//	medcc-lint              # lint the module containing the cwd
//	medcc-lint -root DIR    # lint the module rooted at DIR
//	medcc-lint -analyzers allocfree,floateq
//	medcc-lint -list        # describe the analyzers
//	medcc-lint -json        # machine-readable diagnostics on stdout
//	medcc-lint -sarif PATH  # also write a SARIF 2.1.0 report to PATH
//
// See DESIGN.md §8 for what each analyzer enforces and README.md for
// the annotation conventions (medcc:allocfree, medcc:coldpath,
// medcc:scratch, medcc:floateq-exact, medcc:deterministic, medcc:daemon,
// medcc:onesnapshot, medcc:testoracle, medcc:lint-ignore).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"medcc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut *os.File) int {
	fs := flag.NewFlagSet("medcc-lint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	root := fs.String("root", "", "module root to lint (default: nearest go.mod above the cwd)")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 report to this path (written even when clean)")
	verbose := fs.Bool("v", false, "report load/run timing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	dir := *root
	if dir == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		dir, err = analysis.FindRoot(cwd)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
	}

	start := time.Now()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	mod, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	loaded := time.Now()

	diags := analysis.Run(mod, analyzers)
	if *verbose {
		fmt.Fprintf(errOut, "medcc-lint: %d packages loaded in %v, %d analyzers ran in %v\n",
			len(mod.Packages), loaded.Sub(start).Round(time.Millisecond),
			len(analyzers), time.Since(loaded).Round(time.Millisecond))
	}
	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
		err = analysis.WriteSARIF(f, dir, analyzers, diags)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
	}

	if *jsonOut {
		type jsonDiag struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		list := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			list = append(list, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(list); err != nil {
			fmt.Fprintln(errOut, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "medcc-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
