package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts fixture expectations: a trailing comment of the form
// `// want "regexp"` on the line a diagnostic must anchor to (see
// markerWantComment). Multiple wants on one line are allowed.
var wantRe = regexp.MustCompile(markerWantComment + `\s+"((?:[^"\\]|\\.)*)"`)

type wantDiag struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// runFixture loads testdata/src/<name>, runs the analyzer of the same
// name over it, and requires a 1:1 match between the diagnostics and
// the fixture's want comments: every diagnostic must satisfy a want on
// its line, and every want must be consumed.
func runFixture(t *testing.T, name string) {
	t.Helper()
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.LoadFixture(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	// The staleignore fixture exercises the driver's stale-suppression
	// pass, which needs the full suite so every named analyzer has run.
	analyzers := All()
	if name != StaleIgnoreName {
		analyzers, err = ByName(name)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wants []*wantDiag
	for _, pkg := range m.Targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := m.Fset.Position(c.Pos())
					for _, sub := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(sub[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, sub[1], err)
						}
						wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

	for _, d := range Run(m, analyzers) {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched, ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestAllocFreeFixture(t *testing.T)     { runFixture(t, "allocfree") }
func TestEpochGuardFixture(t *testing.T)    { runFixture(t, "epochguard") }
func TestScratchEscapeFixture(t *testing.T) { runFixture(t, "scratchescape") }
func TestFloatEqFixture(t *testing.T)       { runFixture(t, "floateq") }
func TestMapIterFixture(t *testing.T)       { runFixture(t, "mapiter") }
func TestAtomicsFixture(t *testing.T)       { runFixture(t, "atomics") }
func TestGoroLeakFixture(t *testing.T)      { runFixture(t, "goroleak") }
func TestChanCloseFixture(t *testing.T)     { runFixture(t, "chanclose") }
func TestDeterminismFixture(t *testing.T)   { runFixture(t, "determinism") }
func TestErrWrapFixture(t *testing.T)       { runFixture(t, "errwrap") }
func TestDeadCodeFixture(t *testing.T)      { runFixture(t, "deadcode") }
func TestStaleIgnoreFixture(t *testing.T)   { runFixture(t, "staleignore") }

// funcAnalyzer adapts a function to the Analyzer interface for driver
// tests.
type funcAnalyzer func(m *Module, report func(Diagnostic))

func (funcAnalyzer) Name() string                             { return "stub" }
func (funcAnalyzer) Doc() string                              { return "driver test stub" }
func (f funcAnalyzer) Run(m *Module, report func(Diagnostic)) { f(m, report) }

// TestRunFiltersToTargets pins the driver's target filter: a fixture
// load also type-checks the module packages the fixture imports (the
// deadcode fixture imports internal/stats), and a finding an analyzer
// reports there must not come back.
func TestRunFiltersToTargets(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.LoadFixture(filepath.Join("testdata", "src", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	stub := funcAnalyzer(func(m *Module, report func(Diagnostic)) {
		for _, pkg := range m.Packages {
			reported[pkg.Path] = true
			report(Diagnostic{Pos: m.Fset.Position(pkg.Files[0].Name.Pos()), Message: "in " + pkg.Path})
		}
	})
	diags := Run(m, []Analyzer{stub})
	if !reported["fixture/deadcode"] || !reported["medcc/internal/stats"] {
		t.Fatalf("stub reported in %v, want the fixture and medcc/internal/stats", reported)
	}
	if len(diags) != 1 || diags[0].Message != "in fixture/deadcode" {
		t.Fatalf("Run returned %v, want only the fixture's finding", diags)
	}
}

// TestLintSelf runs the full suite over the real module, so
// `go test ./...` fails on new invariant violations even where CI does
// not run. Keep it green by fixing the finding or adding a
// `medcc:lint-ignore <analyzer>` with a rationale (see README.md).
func TestLintSelf(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(m, All()) {
		t.Errorf("%s", d)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 11 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 11, nil", len(all), err)
	}
	two, err := ByName("allocfree, floateq")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not fail")
	}
}
