package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/workflow"
)

func TestRunTopologies(t *testing.T) {
	dir := t.TempDir()
	for _, topo := range []string{"random", "pipeline", "forkjoin", "layered", "montage", "cybershake", "epigenomics"} {
		out := filepath.Join(dir, topo+".json")
		catOut := filepath.Join(dir, topo+"-cat.json")
		if err := run([]string{"-topology", topo, "-m", "8", "-e", "12", "-out", out, "-catout", catOut}); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var w workflow.Workflow
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatalf("%s produced invalid workflow: %v", topo, err)
		}
		catData, err := os.ReadFile(catOut)
		if err != nil {
			t.Fatal(err)
		}
		var cat cloud.Catalog
		if err := json.Unmarshal(catData, &cat); err != nil {
			t.Fatalf("%s produced invalid catalog: %v", topo, err)
		}
		if err := cat.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunCorpusMode(t *testing.T) {
	dir := t.TempDir()

	// A converted input rides along as a positional argument.
	daxPath := filepath.Join(dir, "conv.xml")
	dax := `<?xml version="1.0"?>
<adag name="tiny">
  <job id="a" runtime="3"/>
  <job id="b" runtime="5"/>
  <child ref="b"><parent ref="a"/></child>
</adag>`
	if err := os.WriteFile(daxPath, []byte(dax), 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "corpus.medc")
	if err := run([]string{"-corpus", out, "-count", "25", "-seed", "3", "-compress", daxPath}); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr, err := encoding.NewCorpusReader(bufio.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	wf := workflow.New()
	generated, converted := 0, 0
	for rec := 0; ; rec++ {
		cat, info, err := cr.Next(wf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", rec, err)
		}
		if err := cat.Validate(); err != nil {
			t.Fatalf("record %d catalog: %v", rec, err)
		}
		switch info.Kind {
		case encoding.KindGenerated:
			generated++
			// info carries the requested problem size; the generator adds
			// entry/exit modules on top of it.
			if wf.NumModules() < int(info.M) {
				t.Fatalf("record %d: %d modules for requested size %d", rec, wf.NumModules(), info.M)
			}
		case encoding.KindDAX:
			converted++
			if wf.NumModules() != 2 || wf.NumDependencies() != 1 {
				t.Fatalf("converted record: %d modules, %d edges", wf.NumModules(), wf.NumDependencies())
			}
		default:
			t.Fatalf("record %d: unexpected kind %d", rec, info.Kind)
		}
	}
	if generated != 25 || converted != 1 {
		t.Fatalf("%d generated + %d converted records", generated, converted)
	}
}

func TestRunUnknownTopology(t *testing.T) {
	if err := run([]string{"-topology", "torus"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestRunBadParams(t *testing.T) {
	if err := run([]string{"-m", "5", "-e", "999"}); err == nil {
		t.Fatal("impossible edge count accepted")
	}
	// Parameters that would write an instance medcc rejects fail, and
	// write no file.
	dir := t.TempDir()
	out, catOut := filepath.Join(dir, "wf.json"), filepath.Join(dir, "cat.json")
	for _, args := range [][]string{
		{"-topology", "forkjoin", "-width", "0"},
		{"-topology", "pipeline", "-m", "0"},
		{"-topology", "layered", "-depth", "0"},
		{"-n", "0", "-catout", catOut},
		{"-n", "-1", "-catout", catOut},
	} {
		if err := run(append(args, "-out", out)); err == nil {
			t.Fatalf("%v accepted", args)
		}
		for _, p := range []string{out, catOut} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("%v wrote %s", args, p)
			}
		}
	}
	conv := filepath.Join(dir, "conv.xml")
	if err := os.WriteFile(conv, []byte(`<adag name="t"><job id="a" runtime="3"/></adag>`), 0o644); err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(dir, "c.medc")
	if err := run([]string{"-corpus", corpus, "-count", "1", "-n", "0", conv}); err == nil {
		t.Fatal("converted records with an empty catalog accepted")
	}
	if _, err := os.Stat(corpus); !os.IsNotExist(err) {
		t.Fatal("corpus written with an empty catalog")
	}
}
