package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
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
// live when an interface call can reach it: its type, T or *T, implements
// an interface that declares the method's name (dispatchedMethods).
// Unwrap, Is and As stay live by name alone, since package errors
// asserts them through anonymous interfaces of its own.
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

	dispatched := dispatchedMethods(m)
	for _, n := range g.Funcs() {
		recv := n.Fn.Type().(*types.Signature).Recv()
		switch {
		case recv == nil && (n.Fn.Name() == "init" || n.Fn.Name() == "main" && n.Pkg.Types.Name() == "main"):
		case recv != nil && dispatched[n.Fn]:
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

// dispatchedMethods returns the methods an interface call can reach:
// for every named type T of the loaded packages whose *T implements one
// of the interfaces, the methods of *T's method set, promoted ones
// included, that the interface declares. (*T implements every interface
// T does.) The result of types.Implements is unspecified for
// uninstantiated generic types, so their methods, and the methods named
// by a generic interface, stay live by name, as do Unwrap, Is and As.
func dispatchedMethods(m *Module) map[*types.Func]bool {
	ifaces, byName := interfaces(m)
	declared := maps.Clone(byName)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			declared[it.Method(i).Name()] = true
		}
	}
	live := map[*types.Func]bool{}
	for _, pkg := range m.Packages {
		// medcc:lint-ignore mapiter — fills a set; iteration order cannot reach the result.
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			ms := types.NewMethodSet(ptr)
			generic := named.TypeParams().Len() > 0
			for i := 0; i < ms.Len(); i++ {
				if fn := ms.At(i).Obj(); byName[fn.Name()] || generic && declared[fn.Name()] {
					live[fn.(*types.Func).Origin()] = true
				}
			}
			for _, it := range ifaces {
				if generic || ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						live[sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
	return live
}

// interfaces returns every interface with methods that the loaded
// packages declare or use, every named interface of their imports
// (transitively), and the universe error, each once. A generic
// interface is not returned; its method names join byName, with the
// Unwrap/Is/As names package errors asserts without a named type.
func interfaces(m *Module) (ifaces []*types.Interface, byName map[string]bool) {
	byName = map[string]bool{"Unwrap": true, "Is": true, "As": true}
	seenIface := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if t == nil {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || seenIface[it] {
			return
		}
		seenIface[it] = true
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			for i := 0; i < it.NumMethods(); i++ {
				byName[it.Method(i).Name()] = true
			}
			return
		}
		ifaces = append(ifaces, it)
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
	return ifaces, byName
}
