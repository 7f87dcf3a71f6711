package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module in a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// LoadFixture loads the single package in dir under a synthetic import
// path, together with any module packages it (transitively) imports,
// and returns a Module targeting only the fixture. Analyzer tests use
// this to run one analyzer over one testdata package.
func (l *Loader) LoadFixture(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := l.loadDir(abs, "fixture/"+filepath.Base(abs))
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range l.pkgs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return &Module{Fset: l.fset, Path: l.ModPath, Packages: pkgs, Targets: []*Package{pkg}}, nil
}

func loadAll(t *testing.T, root string) (*Module, error) {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l.LoadAll()
}

func TestLoadAllSyntaxError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":     "module broken\n",
		"bad/bad.go": "package bad\n\nfunc oops( {\n",
	})
	_, err := loadAll(t, root)
	if err == nil {
		t.Fatal("LoadAll succeeded on a syntax error")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("error is not a *LoadError: %v", err)
	}
	if le.Stage != "parse" || le.Path != "broken/bad" {
		t.Errorf("LoadError = {Path: %q, Stage: %q}, want {broken/bad, parse}", le.Path, le.Stage)
	}
}

func TestLoadAllMissingImport(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":     "module broken\n",
		"bad/bad.go": "package bad\n\nimport \"no/such/dependency\"\n\nvar _ = dependency.Thing\n",
	})
	_, err := loadAll(t, root)
	if err == nil {
		t.Fatal("LoadAll succeeded with a missing import")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("error is not a *LoadError: %v", err)
	}
	if le.Stage != "typecheck" || le.Path != "broken/bad" {
		t.Errorf("LoadError = {Path: %q, Stage: %q}, want {broken/bad, typecheck}", le.Path, le.Stage)
	}
}

// TestLoadAllReportsEveryFailure checks that independent package
// failures all surface, joined in deterministic (lexical walk) order.
func TestLoadAllReportsEveryFailure(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":         "module broken\n",
		"alpha/alpha.go": "package alpha\n\nfunc oops( {\n",
		"beta/beta.go":   "package beta\n\nfunc oops( {\n",
	})
	_, err := loadAll(t, root)
	if err == nil {
		t.Fatal("LoadAll succeeded with two broken packages")
	}
	msg := err.Error()
	ia, ib := strings.Index(msg, "broken/alpha"), strings.Index(msg, "broken/beta")
	if ia < 0 || ib < 0 {
		t.Fatalf("joined error missing a package: %v", err)
	}
	if ia > ib {
		t.Errorf("error order not deterministic (beta before alpha): %v", err)
	}
}

func TestLoadFixtureEmptyPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":        "module broken\n",
		"empty/.gitkee": "",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadFixture(filepath.Join(root, "empty"))
	if !errors.Is(err, ErrNoGoFiles) {
		t.Fatalf("LoadFixture(empty) error = %v, want ErrNoGoFiles", err)
	}
}

// TestLoadAllParallelDeterministic loads the real module twice with
// independent loaders and requires identical package lists and
// identical diagnostics — the parallel waves must not leak schedule
// order into results.
func TestLoadAllParallelDeterministic(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var lists [2][]string
	for i := range lists {
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		m, err := l.LoadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range m.Packages {
			lists[i] = append(lists[i], pkg.Path)
		}
		for _, d := range Run(m, All()) {
			lists[i] = append(lists[i], d.String())
		}
	}
	if strings.Join(lists[0], "\n") != strings.Join(lists[1], "\n") {
		t.Errorf("two LoadAll runs disagree:\n%v\nvs\n%v", lists[0], lists[1])
	}
}
