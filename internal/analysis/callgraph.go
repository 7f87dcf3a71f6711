package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallGraph is the shared whole-module call-graph + fact engine the
// transitive analyzers are built on. It replaces the per-analyzer
// ad-hoc walks (the allocfree worklist, scratchescape's raw file scans)
// with one go/types-backed structure, built once per Module and cached:
//
//   - one FuncNode per function declaration with a body, in
//     deterministic order (packages sorted by path, then file, then
//     declaration order);
//   - static call edges resolved through go/types (direct calls and
//     method calls; calls through func values and interface methods
//     have no static callee and no edge — analyzers over-approximate
//     around them with annotations on the concrete implementations);
//   - per-function facts collected in a single AST pass: every call
//     site (with its resolved callee, in-module or not), every function
//     the body references, go statements, channel sends / closes /
//     receives, and map range statements.
//
// Facts deliberately include what happens inside function literals
// declared in the body: a closure runs with (or on behalf of) its
// enclosing function, so for reachability purposes its calls belong to
// the encloser. Analyzers with stricter lexical rules (allocfree flags
// the closure itself; mapiter scopes its idioms per closure) keep their
// own finer-grained inspection of the bodies the graph hands them.
type CallGraph struct {
	mod   *Module
	nodes map[*types.Func]*FuncNode
	order []*FuncNode
}

// FuncNode is one declared function of the module with its facts.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls lists every call expression in the body (body order,
	// including inside func literals) with its statically resolved
	// callee — which may live outside the module (time.Now) or be nil
	// (func values, interface methods, builtins, conversions).
	Calls []CallSite
	// GoStmts, Sends, Closes, Recvs, ChanRanges, and MapRanges are the
	// concurrency- and determinism-relevant sites of the body.
	GoStmts    []*ast.GoStmt
	Sends      []*ast.SendStmt
	Closes     []*ast.CallExpr  // close(ch) builtin calls
	Recvs      []*ast.UnaryExpr // <-ch receive expressions
	ChanRanges []*ast.RangeStmt // for range ch
	MapRanges  []*ast.RangeStmt // for range m (map-typed X)
	// Refs lists every function the body names, called or not: callees,
	// func values and method values (generic instances normalized to
	// their origin), in body order with repeats. deadcode walks these.
	Refs []*types.Func

	callees []*FuncNode // deduped in-module callees with bodies, first-call order
}

// CallSite is one call expression with its resolved static callee.
type CallSite struct {
	Expr   *ast.CallExpr
	Callee *types.Func // nil when the callee is not statically resolvable
}

// CallGraph builds (once) and returns the module's call graph.
func (m *Module) CallGraph() *CallGraph {
	if m.callGraph != nil {
		return m.callGraph
	}
	g := &CallGraph{mod: m, nodes: map[*types.Func]*FuncNode{}}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				n.collectFacts()
				g.nodes[fn] = n
				g.order = append(g.order, n)
			}
		}
	}
	// Edges second, so forward references within the module resolve.
	for _, n := range g.order {
		seen := map[*FuncNode]bool{}
		for _, cs := range n.Calls {
			if cs.Callee == nil {
				continue
			}
			callee, ok := g.nodes[cs.Callee]
			if !ok || seen[callee] {
				continue
			}
			seen[callee] = true
			n.callees = append(n.callees, callee)
		}
	}
	m.callGraph = g
	return g
}

// collectFacts fills the node's fact slices in one pass over the body.
func (n *FuncNode) collectFacts() {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if b.Name() == "close" {
						n.Closes = append(n.Closes, node)
					}
					n.Calls = append(n.Calls, CallSite{Expr: node})
					return true
				}
			}
			n.Calls = append(n.Calls, CallSite{Expr: node, Callee: Callee(n.Pkg, node)})
		case *ast.Ident:
			if fn := referencedFunc(info, node); fn != nil {
				n.Refs = append(n.Refs, fn)
			}
		case *ast.GoStmt:
			n.GoStmts = append(n.GoStmts, node)
		case *ast.SendStmt:
			n.Sends = append(n.Sends, node)
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				n.Recvs = append(n.Recvs, node)
			}
		case *ast.RangeStmt:
			switch info.TypeOf(node.X).Underlying().(type) {
			case *types.Map:
				n.MapRanges = append(n.MapRanges, node)
			case *types.Chan:
				n.ChanRanges = append(n.ChanRanges, node)
			}
		}
		return true
	})
}

// referencedFunc returns the function an identifier node refers to (a
// generic instance mapped to its origin), or nil for any other node.
func referencedFunc(info *types.Info, node ast.Node) *types.Func {
	id, ok := node.(*ast.Ident)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// HasMarker reports whether the node's doc comment carries the marker.
func (n *FuncNode) HasMarker(marker string) bool { return HasMarker(n.Decl.Doc, marker) }

// Funcs returns every node in deterministic declaration order.
func (g *CallGraph) Funcs() []*FuncNode { return g.order }

// Node returns the node declaring fn, or nil when fn has no body in the
// module.
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.nodes[fn] }

// RootsWithMarker returns the nodes whose doc comment carries marker,
// in declaration order.
func (g *CallGraph) RootsWithMarker(marker string) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.order {
		if n.HasMarker(marker) {
			roots = append(roots, n)
		}
	}
	return roots
}

// Walk runs a breadth-first traversal of the static call graph from
// roots, attributing every reached node to the first root that reached
// it (roots are seeded in order, so attribution is deterministic).
// skip prunes: a node for which skip returns true is neither visited
// nor walked through (nil means no pruning). visit is called exactly
// once per reached node.
func (g *CallGraph) Walk(roots []*FuncNode, skip func(*FuncNode) bool, visit func(n, root *FuncNode)) {
	type item struct{ n, root *FuncNode }
	var queue []item
	seen := map[*FuncNode]bool{}
	for _, r := range roots {
		if !seen[r] && (skip == nil || !skip(r)) {
			seen[r] = true
			queue = append(queue, item{r, r})
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		visit(it.n, it.root)
		for _, c := range it.n.callees {
			if seen[c] || (skip != nil && skip(c)) {
				continue
			}
			seen[c] = true
			queue = append(queue, item{c, it.root})
		}
	}
}
