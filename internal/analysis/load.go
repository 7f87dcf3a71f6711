package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNoGoFiles reports a package directory with no non-test Go files.
var ErrNoGoFiles = errors.New("no Go files in package directory")

// errImportCycle reports a dependency cycle among module packages.
var errImportCycle = errors.New("import cycle")

// LoadError is the typed failure of loading one package: Path is the
// import path, Stage is "parse" or "typecheck". LoadAll joins one per
// failed package (errors.Join), in deterministic path order, so callers
// can errors.As for the first and still print them all.
type LoadError struct {
	Path  string
	Stage string // "parse" | "typecheck"
	Err   error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("analysis: %s %s: %v", e.Stage, e.Path, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// Loader type-checks module packages with nothing but the standard
// library: each package's non-test files are parsed with go/parser and
// checked with go/types; imports inside the module are served from the
// loader's own results, everything else (the standard library) is
// delegated to go/importer's default toolchain importer. LoadAll
// parallelizes both stages — all packages parse concurrently (the
// FileSet is synchronized), then type-checking proceeds in dependency
// waves with every package of a wave checked concurrently. Diagnostic
// order stays deterministic: packages are discovered in lexical walk
// order, results are sorted by import path, and positions compare by
// filename/line/column, which do not depend on FileSet insertion order.
type Loader struct {
	Root    string // module root (directory containing go.mod)
	ModPath string // module path from the go.mod module directive

	fset       *token.FileSet
	pkgs       map[string]*Package // by import path; written only between waves
	loading    map[string]bool     // import cycle guard (sequential path)
	fallback   types.Importer
	fallbackMu sync.Mutex // the toolchain importer is not documented concurrency-safe
	sizes      types.Sizes
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Root:     abs,
		ModPath:  modPath,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*Package{},
		loading:  map[string]bool{},
		fallback: importer.Default(),
		sizes:    types.SizesFor("gc", "amd64"),
	}, nil
}

// FindRoot walks upward from dir to the nearest directory containing a
// go.mod file.
func FindRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// loadTask is one package moving through LoadAll's pipeline.
type loadTask struct {
	dir, path string
	files     []*ast.File
	deps      []string // module-internal import paths
	pkg       *Package
	err       error
}

// LoadAll loads every package of the module (skipping testdata
// directories) and returns a Module with all of them as targets. Parse
// and type-check both run in parallel; see the Loader doc for how
// determinism is preserved.
func (l *Loader) LoadAll() (*Module, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tasks := make([]*loadTask, len(dirs))
	for i, dir := range dirs {
		tasks[i] = &loadTask{dir: dir, path: l.pathForDir(dir)}
	}

	// Stage 1: parse every package concurrently. Each worker parses its
	// own directory's files (per-worker scratch: the parser state is
	// internal to ParseFile); the shared FileSet synchronizes itself.
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t *loadTask) {
			defer wg.Done()
			t.files, t.err = l.parseDir(t.dir)
		}(t)
	}
	wg.Wait()
	var errs []error
	for _, t := range tasks { // walk order: lexical, deterministic
		if t.err != nil {
			errs = append(errs, &LoadError{Path: t.path, Stage: "parse", Err: t.err})
		}
	}
	if errs != nil {
		return nil, errors.Join(errs...)
	}

	// Module-internal dependency edges, from the parsed import specs.
	inModule := map[string]bool{}
	for _, t := range tasks {
		inModule[t.path] = true
	}
	for _, t := range tasks {
		seen := map[string]bool{}
		for _, f := range t.files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !inModule[p] || seen[p] {
					continue
				}
				seen[p] = true
				t.deps = append(t.deps, p)
			}
		}
	}

	// Stage 2: type-check in dependency waves. A package joins a wave
	// once all its module-internal deps are in l.pkgs; the whole wave
	// checks concurrently against the read-only l.pkgs map, and results
	// are committed only after the wave barrier.
	remaining := 0
	for _, t := range tasks {
		if pkg := l.pkgs[t.path]; pkg != nil {
			t.pkg = pkg // memoized by an earlier load
		} else {
			remaining++
		}
	}
	for remaining > 0 {
		var wave []*loadTask
		for _, t := range tasks {
			if t.pkg != nil {
				continue
			}
			ready := true
			for _, d := range t.deps {
				if l.pkgs[d] == nil {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, t)
			}
		}
		if len(wave) == 0 {
			var stuck []string
			for _, t := range tasks {
				if t.pkg == nil {
					stuck = append(stuck, t.path)
				}
			}
			return nil, &LoadError{Path: strings.Join(stuck, ", "), Stage: "typecheck", Err: errImportCycle}
		}
		for _, t := range wave {
			wg.Add(1)
			go func(t *loadTask) {
				defer wg.Done()
				t.pkg, t.err = l.checkFiles(t.path, t.dir, t.files)
			}(t)
		}
		wg.Wait()
		for _, t := range wave {
			if t.err != nil {
				errs = append(errs, &LoadError{Path: t.path, Stage: "typecheck", Err: t.err})
				continue
			}
			l.pkgs[t.path] = t.pkg
			remaining--
		}
		if errs != nil {
			return nil, errors.Join(errs...)
		}
	}

	pkgs := make([]*Package, len(tasks))
	for i, t := range tasks {
		pkgs[i] = t.pkg
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return &Module{Fset: l.fset, Path: l.ModPath, Packages: pkgs, Targets: pkgs}, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

func (l *Loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) dirForPath(path string) (string, bool) {
	if path == l.ModPath {
		return l.Root, true
	}
	if rel, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rel)), true
	}
	return "", false
}

// Import implements types.Importer for the sequential path (the tests'
// LoadFixture and its transitive module imports): module-internal paths
// load (and memoize) through the loader, all others go to the toolchain
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.dirForPath(path); ok {
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.importFallback(path)
}

// importFallback serializes access to the toolchain importer, which is
// shared by every type-checking worker in a wave.
func (l *Loader) importFallback(path string) (*types.Package, error) {
	l.fallbackMu.Lock()
	defer l.fallbackMu.Unlock()
	return l.fallback.Import(path)
}

// waveImporter is the importer handed to concurrent wave workers: it
// reads the committed package map (no writes happen during a wave) and
// serializes stdlib fallback imports.
type waveImporter struct{ l *Loader }

func (w waveImporter) Import(path string) (*types.Package, error) {
	if _, ok := w.l.dirForPath(path); ok {
		if pkg := w.l.pkgs[path]; pkg != nil {
			return pkg.Types, nil
		}
		return nil, &LoadError{Path: path, Stage: "typecheck", Err: errors.New("dependency not loaded before its importer (wave ordering bug)")}
	}
	return w.l.importFallback(path)
}

// parseDir parses the non-test Go files of dir into the shared FileSet.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, ErrNoGoFiles
	}
	return files, nil
}

// checkFiles type-checks one parsed package against the committed
// results of earlier waves.
func (l *Loader) checkFiles(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: waveImporter{l}, Sizes: l.sizes}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// loadDir parses and type-checks the package in dir, memoized by import
// path — the sequential recursion used by Import and the tests'
// LoadFixture. Test files are excluded: the analyzers enforce engine
// invariants on shipped code, and external-test packages would need a
// second checker pass for no finding we care about.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, &LoadError{Path: path, Stage: "typecheck", Err: errImportCycle}
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, &LoadError{Path: path, Stage: "parse", Err: err}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l, Sizes: l.sizes}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, &LoadError{Path: path, Stage: "typecheck", Err: err}
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
