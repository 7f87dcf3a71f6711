// Package analysis is the project's static-analysis suite: a
// stdlib-only (go/parser, go/ast, go/types — no x/tools) driver, a
// shared whole-module call-graph + fact engine (callgraph.go), and eleven
// analyzers that machine-check the invariants the timing engine
// (internal/dag, internal/sched), the simulator core (internal/sim),
// and the serving stack (internal/serve) were rebuilt around. The
// invariants are conventions that reviews cannot reliably police, so
// each gets an analyzer (see DESIGN.md §8):
//
//   - allocfree:     `// medcc:allocfree` functions and their in-module
//     callees must not contain allocating constructs.
//   - epochguard:    structs caching *dag.Graph / *workflow.Workflow /
//     *workflow.Matrices must guard the binding with a version/epoch
//     field compared via Version() / Epoch().
//   - scratchescape: `// medcc:scratch` pooled types must not be
//     captured by go statements or sent on channels.
//   - floateq:       no ==/!= on float64 time/cost values outside
//     functions marked `// medcc:floateq-exact`.
//   - mapiter:       no unsorted map iteration feeding deterministic
//     outputs.
//   - atomics:       sync/atomic-managed words never accessed plainly;
//     one atomic.Pointer Load per `// medcc:onesnapshot` request path.
//   - goroleak:      every go statement joins a WaitGroup, signals a
//     drain channel, or is annotated `// medcc:daemon`.
//   - chanclose:     channels close once, on the sending side, and
//     sent-on channels have a drain path.
//   - determinism:   `// medcc:deterministic` roots and everything
//     reachable from them avoid the wall clock, the global rand
//     source, and unsorted map order.
//   - errwrap:       error causes wrap with %w or shared sentinels; no
//     err.Error() re-stringifying, no duplicate errors.New messages.
//   - deadcode:      every function of a non-main package is reachable
//     from main, init, a root-package export, a package-level
//     initialiser, an interface method name, or a
//     `// medcc:testoracle` reference implementation.
//
// Findings are suppressed line-by-line with
// `// medcc:lint-ignore <analyzer> — rationale`, either trailing the
// offending line or on the line above it; suppressions that no longer
// suppress anything are themselves findings (staleignore). cmd/medcc-lint
// is the CLI front end; TestLintSelf keeps `go test ./...` failing on
// new violations even where CI is not run.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker run over a loaded module.
type Analyzer interface {
	// Name is the analyzer's identifier in diagnostics and in
	// `medcc:lint-ignore` suppression comments.
	Name() string
	// Doc is a one-line description for `medcc-lint -list`.
	Doc() string
	// Run inspects the module and reports findings via report. The
	// driver filters findings to target packages and applies
	// suppressions; analyzers report everything they see.
	Run(m *Module, report func(Diagnostic))
}

// Package is one type-checked package of the module (or a fixture).
type Package struct {
	Path  string // import path ("medcc/internal/dag")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the unit of analysis: every loaded package plus the shared
// FileSet. Targets lists the packages whose files diagnostics are kept
// for (the whole module under medcc-lint; a single fixture package under
// the analyzer tests) — analyzers may still traverse the rest, e.g. the
// allocfree call walk crossing package boundaries.
type Module struct {
	Fset     *token.FileSet
	Path     string     // module path from go.mod; its package's exports are deadcode roots
	Packages []*Package // all loaded packages, sorted by path
	Targets  []*Package

	callGraph *CallGraph
}

// Callee resolves the static callee of call within pkg: a *types.Func
// for direct calls and method calls, nil for calls of func values,
// builtins, and type conversions.
func Callee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// Marker annotations are single comment lines of the form
// `// medcc:<marker>` inside a declaration's doc comment.
const (
	MarkerAllocFree     = "medcc:allocfree"     // function must stay allocation-free (walked transitively)
	MarkerColdPath      = "medcc:coldpath"      // allocates only off the steady state (bind/growth/error); not walked
	MarkerScratch       = "medcc:scratch"       // pooled scratch type: worker-private, must not escape
	MarkerFloatExact    = "medcc:floateq-exact" // function compares floats bit-exactly by design
	MarkerDeterministic = "medcc:deterministic" // differential-tested root: no clock/global-rand/map-order (walked transitively)
	MarkerDaemon        = "medcc:daemon"        // goroutine deliberately outlives its spawner (process-lifetime)
	MarkerOneSnapshot   = "medcc:onesnapshot"   // request root: each atomic.Pointer snapshot Loaded at most once (walked transitively)
	MarkerTestOracle    = "medcc:testoracle"    // reference implementation only tests call; a deadcode root
	markerLintIgnore    = "medcc:lint-ignore"
	markerWantComment   = "want" // fixture expectations, see analysis_test.go
)

// HasMarker reports whether doc contains the marker annotation on a
// line of its own (trailing rationale after the marker is allowed).
func HasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if commentHasMarker(c.Text, marker) {
			return true
		}
	}
	return false
}

// commentHasMarker reports whether a single comment's text is the
// marker annotation (with optional trailing rationale).
func commentHasMarker(text, marker string) bool {
	text = strings.TrimSpace(strings.TrimLeft(text, "/* \t"))
	return text == marker || strings.HasPrefix(text, marker+" ")
}

var ignoreRe = regexp.MustCompile(markerLintIgnore + `\s+([a-z,]+)`)

// StaleIgnoreName is the pseudo-analyzer name of the driver's stale
// suppression check: a `medcc:lint-ignore` comment that suppresses no
// finding of any analyzer in the run is itself a finding — dead
// suppressions hide the next real violation on their line. The check
// has the same escape hatch as everything else: list staleignore in the
// comment (`medcc:lint-ignore mapiter,staleignore — rationale`) to keep
// a suppression that is only needed intermittently.
const StaleIgnoreName = "staleignore"

// ignoreComment is one `medcc:lint-ignore` comment with the usage
// record the stale check consumes.
type ignoreComment struct {
	pos   token.Position // the comment's own position
	names []string
	used  map[string]bool
}

// suppressionIndex maps filename -> line -> analyzer name -> the
// suppressing comment.
type suppressionIndex map[string]map[int]map[string]*ignoreComment

// suppress records a use and reports whether d is suppressed.
func (s suppressionIndex) suppress(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	ic := byLine[d.Pos.Line][d.Analyzer]
	if ic == nil {
		return false
	}
	ic.used[d.Analyzer] = true
	return true
}

// suppressions indexes every `medcc:lint-ignore <analyzer>` comment of
// the module. A comment suppresses both its own line (trailing style)
// and the line immediately after it (comment-above style); `<analyzer>`
// may be a comma-separated list. Mentions inside backticks
// (`medcc:lint-ignore mapiter` in a doc comment) are prose, not
// suppressions, and are skipped.
func suppressions(m *Module) (suppressionIndex, []*ignoreComment) {
	out := suppressionIndex{}
	var comments []*ignoreComment
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := ignoreRe.FindStringSubmatchIndex(c.Text)
					if idx == nil {
						continue
					}
					if idx[0] > 0 && c.Text[idx[0]-1] == '`' {
						continue
					}
					ic := &ignoreComment{
						pos:  m.Fset.Position(c.Pos()),
						used: map[string]bool{},
					}
					for _, name := range strings.Split(c.Text[idx[2]:idx[3]], ",") {
						if name = strings.TrimSpace(name); name != "" {
							ic.names = append(ic.names, name)
						}
					}
					if len(ic.names) == 0 {
						continue
					}
					comments = append(comments, ic)
					byLine := out[ic.pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]*ignoreComment{}
						out[ic.pos.Filename] = byLine
					}
					for _, name := range ic.names {
						for _, line := range []int{ic.pos.Line, ic.pos.Line + 1} {
							if byLine[line] == nil {
								byLine[line] = map[string]*ignoreComment{}
							}
							byLine[line][name] = ic
						}
					}
				}
			}
		}
	}
	return out, comments
}

// Run executes the analyzers over the module, drops findings suppressed
// by `medcc:lint-ignore` comments, reports suppressions that suppressed
// nothing (staleignore), and returns the rest that lie in the module's
// target packages, sorted by position.
func Run(m *Module, analyzers []Analyzer) []Diagnostic {
	sup, comments := suppressions(m)
	targets := map[string]bool{}
	for _, pkg := range m.Targets {
		for _, f := range pkg.Files {
			targets[m.Fset.Position(f.Pos()).Filename] = true
		}
	}
	var out []Diagnostic
	seen := map[string]bool{}
	emit := func(d Diagnostic) {
		// Suppress first, so a suppression in a loaded non-target
		// package still counts as used and is not reported stale.
		if sup.suppress(d) || !targets[d.Pos.Filename] {
			return
		}
		key := d.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, d)
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		name := a.Name()
		ran[name] = true
		a.Run(m, func(d Diagnostic) {
			d.Analyzer = name
			emit(d)
		})
	}
	// Stale pass: a suppression for an analyzer that ran but matched no
	// finding is dead weight. Names of analyzers outside this run are
	// left alone (a single-analyzer fixture run cannot judge the rest).
	for _, ic := range comments {
		for _, name := range ic.names {
			if name == StaleIgnoreName || !ran[name] || ic.used[name] {
				continue
			}
			emit(Diagnostic{
				Analyzer: StaleIgnoreName,
				Pos:      ic.pos,
				Message:  fmt.Sprintf("lint-ignore for %s suppresses no finding; remove it (or add staleignore to the list with a rationale)", name),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// All returns the full analyzer suite in reporting order.
func All() []Analyzer {
	return []Analyzer{
		&AllocFree{},
		&EpochGuard{},
		&ScratchEscape{},
		&FloatEq{},
		&MapIter{},
		&Atomics{},
		&GoroLeak{},
		&ChanClose{},
		&Determinism{},
		&ErrWrap{},
		&DeadCode{},
	}
}

// ByName selects analyzers from a comma-separated list of names
// ("allocfree,floateq"); an empty list selects all.
func ByName(list string) ([]Analyzer, error) {
	all := All()
	if strings.TrimSpace(list) == "" {
		return all, nil
	}
	byName := map[string]Analyzer{}
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
