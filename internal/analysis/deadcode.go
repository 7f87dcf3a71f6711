package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode reports every function and method of a non-main package
// that no shipped root reaches, so code that loses its last caller
// fails `go test ./...` (through TestLintSelf) instead of lingering.
// Reachability, not reference counts: one pass also finds code that is
// dead only through other dead code. Only non-test files are loaded,
// so a function that only tests call is a finding too; move it into
// the package's _test.go files.
//
// Roots:
//
//   - main and init in every package (cmd/*, examples/*, bench);
//   - every exported name of the module's root package, plus the
//     exported methods of the types it declares or re-exports by alias;
//   - every function named in a package-level var or const initialiser;
//   - functions marked `// medcc:testoracle — reason`: reference
//     implementations that tests compare shipped code against.
//
// Edges are every function a body references (FuncNode.Refs): calls,
// func values and method values, inside closures too. A method is also
// live when its name is a method of any interface type in the loaded
// packages or their imports, of the universe error, or one of the
// Unwrap/Is/As methods package errors asserts through anonymous
// interfaces. Matching by name alone over-approximates dynamic
// dispatch: it may keep a dead method, but never reports a live one.
type DeadCode struct{}

func (*DeadCode) Name() string { return "deadcode" }
func (*DeadCode) Doc() string {
	return "functions of non-main packages must be reachable from main, init, root-package exports, initialisers or medcc:testoracle"
}

func (*DeadCode) Run(m *Module, report func(Diagnostic)) {
	g := m.CallGraph()
	live := map[*FuncNode]bool{}
	var queue []*FuncNode
	mark := func(fn *types.Func) {
		if n := g.Node(fn.Origin()); n != nil && !live[n] {
			live[n] = true
			queue = append(queue, n)
		}
	}

	ifaceNames := interfaceMethodNames(m)
	for _, n := range g.Funcs() {
		recv := n.Fn.Type().(*types.Signature).Recv()
		switch {
		case recv == nil && (n.Fn.Name() == "init" || n.Fn.Name() == "main" && n.Pkg.Types.Name() == "main"):
		case recv != nil && ifaceNames[n.Fn.Name()]:
		case n.HasMarker(MarkerTestOracle):
		default:
			continue
		}
		mark(n.Fn)
	}
	for _, pkg := range m.Packages {
		if pkg.Path == m.Path {
			rootExports(pkg, mark)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && (gd.Tok == token.VAR || gd.Tok == token.CONST) {
					ast.Inspect(gd, func(node ast.Node) bool {
						if fn := referencedFunc(pkg.Info, node); fn != nil {
							mark(fn)
						}
						return true
					})
				}
			}
		}
	}

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, fn := range n.Refs {
			mark(fn)
		}
	}

	for _, n := range g.Funcs() {
		if live[n] || n.Pkg.Types.Name() == "main" {
			continue
		}
		report(Diagnostic{
			Pos:     m.Fset.Position(n.Decl.Name.Pos()),
			Message: fmt.Sprintf("%s is unreachable from every shipped root; delete it, or move it into the _test.go file that uses it", n.Fn.FullName()),
		})
	}
}

// rootExports marks the exported functions of the module's root
// package and the exported methods of its exported types, aliases of
// internal types included: callers outside the module reach them all.
func rootExports(pkg *Package, mark func(*types.Func)) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			mark(obj)
		case *types.TypeName:
			ms := types.NewMethodSet(types.NewPointer(types.Unalias(obj.Type())))
			for i := 0; i < ms.Len(); i++ {
				if fn := ms.At(i).Obj(); fn.Exported() {
					mark(fn.(*types.Func))
				}
			}
		}
	}
}

// interfaceMethodNames returns the name of every method of every
// interface type the loaded packages declare or use, of every named
// interface in their imports (transitively), of the universe error, and
// the Unwrap/Is/As names package errors asserts without a named type.
func interfaceMethodNames(m *Module) map[string]bool {
	names := map[string]bool{"Unwrap": true, "Is": true, "As": true}
	add := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, pkg := range m.Packages {
		scan(pkg.Types)
		// Anonymous and function-local interfaces live only in Info.Types.
		// medcc:lint-ignore mapiter — fills a set; iteration order cannot reach the result.
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	return names
}
