package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"medcc/internal/analysis"
)

// capture runs run() with its output streams redirected to temp files
// and returns the exit code plus both streams' contents.
func capture(t *testing.T, args []string) (code int, out, errOut string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "err"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	code = run(args, outF, errF)
	outB, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	errB, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(outB), string(errB)
}

func TestRunList(t *testing.T) {
	code, out, _ := capture(t, []string{"-list"})
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{
		"allocfree", "epochguard", "scratchescape", "floateq", "mapiter",
		"atomics", "goroleak", "chanclose", "determinism", "errwrap", "deadcode",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	if code, _, _ := capture(t, []string{"-analyzers", "nosuch"}); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
}

func TestRunCleanModule(t *testing.T) {
	root, err := analysis.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := capture(t, []string{"-root", root})
	if code != 0 {
		t.Fatalf("module lint exited %d:\n%s%s", code, out, errOut)
	}
}

// seedViolationModule writes a throwaway module holding one float
// equality violation and returns its root.
func seedViolationModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module seeded\n",
		"bad.go": "package seeded\n\nfunc Eq(a, b float64) bool { return a == b }\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunSeededViolation lints a throwaway module holding one float
// equality and expects the documented non-zero exit and diagnostic.
func TestRunSeededViolation(t *testing.T) {
	dir := seedViolationModule(t)
	code, out, errOut := capture(t, []string{"-root", dir})
	if code != 1 {
		t.Fatalf("seeded violation exited %d, want 1:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "[floateq]") {
		t.Errorf("diagnostic missing [floateq]:\n%s", out)
	}
	if !strings.Contains(errOut, "1 finding(s)") {
		t.Errorf("summary missing finding count:\n%s", errOut)
	}
}

// TestRunBrokenModule expects a typed, non-zero failure (no panic) when
// the module under lint does not parse.
func TestRunBrokenModule(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module broken\n",
		"bad.go": "package broken\n\nfunc oops( {\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, _, errOut := capture(t, []string{"-root", dir})
	if code != 2 {
		t.Fatalf("broken module exited %d, want 2:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "parse") {
		t.Errorf("error output does not name the parse stage:\n%s", errOut)
	}
}

// TestRunJSON checks the machine-readable output against the seeded
// violation by unmarshalling it.
func TestRunJSON(t *testing.T) {
	dir := seedViolationModule(t)
	code, out, _ := capture(t, []string{"-root", dir, "-json"})
	if code != 1 {
		t.Fatalf("seeded violation exited %d, want 1", code)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Analyzer != "floateq" || diags[0].Line == 0 {
		t.Errorf("unexpected JSON diagnostics: %+v", diags)
	}
}

// TestRunSARIF checks the SARIF report: valid JSON, version 2.1.0, the
// full rule roster, and the seeded result with a root-relative URI.
func TestRunSARIF(t *testing.T) {
	dir := seedViolationModule(t)
	sarifFile := filepath.Join(t.TempDir(), "lint.sarif")
	code, _, errOut := capture(t, []string{"-root", dir, "-sarif", sarifFile})
	if code != 1 {
		t.Fatalf("seeded violation exited %d, want 1:\n%s", code, errOut)
	}
	data, err := os.ReadFile(sarifFile)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF header wrong: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "medcc-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, name := range []string{
		"allocfree", "epochguard", "scratchescape", "floateq", "mapiter",
		"atomics", "goroleak", "chanclose", "determinism", "errwrap", "deadcode", "staleignore",
	} {
		if !ruleIDs[name] {
			t.Errorf("SARIF rules missing %s", name)
		}
	}
	if len(run.Results) != 1 || run.Results[0].RuleID != "floateq" {
		t.Fatalf("unexpected SARIF results: %+v", run.Results)
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "bad.go" || loc.Region.StartLine == 0 {
		t.Errorf("unexpected SARIF location: %+v", loc)
	}
}
