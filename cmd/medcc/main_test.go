package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunExample(t *testing.T) {
	if err := run([]string{"-example", "-budget", "57"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExampleWithReuseAndBillingVariants(t *testing.T) {
	for _, billing := range []string{"hourly", "second", "exact"} {
		if err := run([]string{"-example", "-budget", "60", "-billing", billing, "-reuse"}); err != nil {
			t.Fatalf("billing %s: %v", billing, err)
		}
	}
}

func TestRunDotExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "wf.dot")
	if err := run([]string{"-example", "-budget", "57", "-dot", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty dot file")
	}
}

func TestRunTraceExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-example", "-budget", "57", "-trace", out, "-boot", "0.5"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty trace file")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                           // no inputs
		{"-example", "-budget", "1"}, // infeasible
		{"-example", "-budget", "57", "-alg", "zzz"}, // unknown algorithm
		{"-example", "-budget", "57", "-billing", "weekly"},
		{"-workflow", "/nonexistent", "-catalog", "/nonexistent", "-budget", "1"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: error expected for %v", i, args)
		}
	}
}

func TestRunFromDAX(t *testing.T) {
	dir := t.TempDir()
	daxPath := filepath.Join(dir, "wf.xml")
	catPath := filepath.Join(dir, "cat.json")
	daxDoc := `<adag name="t">
	  <job id="a" name="stage1" runtime="30"><uses file="f" link="output" size="1000000"/></job>
	  <job id="b" name="stage2" runtime="60"><uses file="f" link="input" size="1000000"/></job>
	  <child ref="b"><parent ref="a"/></child>
	</adag>`
	cat := `[{"name":"VT1","power":1,"rate":1},{"name":"VT2","power":5,"rate":4}]`
	if err := os.WriteFile(daxPath, []byte(daxDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catPath, []byte(cat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workflow", daxPath, "-catalog", catPath, "-budget", "1000", "-gantt"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workflow", "/nonexistent.xml", "-catalog", catPath, "-budget", "10"}); err == nil {
		t.Fatal("missing DAX accepted")
	}
}

func TestRunFromWfCommons(t *testing.T) {
	dir := t.TempDir()
	wfcPath := filepath.Join(dir, "wf.json")
	catPath := filepath.Join(dir, "cat.json")
	doc := `{"workflow":{"jobs":[
	  {"name":"a","runtime":30,"files":[{"name":"f","link":"output","size":1000000}],"children":["b"]},
	  {"name":"b","runtime":60,"files":[{"name":"f","link":"input","size":1000000}]}
	]}}`
	cat := `[{"name":"VT1","power":1,"rate":1},{"name":"VT2","power":5,"rate":4}]`
	if err := os.WriteFile(wfcPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catPath, []byte(cat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workflow", wfcPath, "-catalog", catPath, "-budget", "1000"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workflow", "/nope.json", "-catalog", catPath, "-budget", "10"}); err == nil {
		t.Fatal("missing WfCommons file accepted")
	}
}

func TestRunFromJSONFiles(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "wf.json")
	catPath := filepath.Join(dir, "cat.json")
	wf := `{"modules":[{"name":"a","workload":30},{"name":"b","workload":60}],
	        "edges":[{"from":0,"to":1,"data_size":1}]}`
	cat := `[{"name":"VT1","power":3,"rate":1},{"name":"VT2","power":15,"rate":4}]`
	if err := os.WriteFile(wfPath, []byte(wf), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catPath, []byte(cat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workflow", wfPath, "-catalog", catPath, "-budget", "100"}); err != nil {
		t.Fatal(err)
	}
	// Corrupt catalog must error.
	if err := os.WriteFile(catPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-workflow", wfPath, "-catalog", catPath, "-budget", "100"}); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

// TestErrorLineHasOnePrefix pins the error line main prints: one
// "medcc: " prefix both for an error the facade already wrapped (a
// catalog type of power 0, rejected by medcc.BudgetRange) and for one of
// the CLI's own.
func TestErrorLineHasOnePrefix(t *testing.T) {
	dir := t.TempDir()
	wfPath := filepath.Join(dir, "wf.json")
	catPath := filepath.Join(dir, "bad.json")
	wf := `{"modules":[{"name":"w","workload":30}],"edges":[]}`
	cat := `[{"name":"a","power":0,"rate":1}]`
	if err := os.WriteFile(wfPath, []byte(wf), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catPath, []byte(cat), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workflow", wfPath, "-catalog", catPath, "-budget", "1"}, `medcc: cloud: type "a" has invalid power 0`},
		{[]string{"-example", "-budget", "57", "-billing", "weekly"}, `medcc: unknown billing policy "weekly"`},
	} {
		err := run(c.args)
		if err == nil {
			t.Fatalf("%v: no error", c.args)
		}
		if got := errorLine(err); got != c.want {
			t.Errorf("%v: error line %q, want %q", c.args, got, c.want)
		}
	}
}
