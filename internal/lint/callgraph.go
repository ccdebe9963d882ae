package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program layer the call-graph analyzers build on: a
// cross-package call graph over every loaded package, constructed on first
// use (Pass.Graph) once per driver invocation and shared across analyzers.
// It is stdlib-only like the rest of the suite — no SSA, no
// golang.org/x/tools — so edges are resolved from the AST plus types.Info:
//
//   - static calls resolve to the declared function or method;
//   - interface method calls resolve CHA-style: every named concrete type in
//     the program that implements the interface contributes its method as a
//     candidate callee;
//   - calls through function-typed values (variables, fields, parameters,
//     stored closures) resolve to every address-taken function or function
//     literal in the program with an identical signature — the function-value
//     analogue of class-hierarchy analysis.
//
// All three are deliberate over-approximations: the graph may contain edges
// no execution takes, but never misses one a real execution could take
// (within the loaded package set — calls into packages outside the load,
// stdlib included, have no callee body and therefore no node). Analyzers
// that consume the graph (hotalloc, lockorder) inherit that conservatism.
//
// Determinism: nodes, edges and reachability traversals are kept in slices
// ordered by (package load order, file order, source position), never ranged
// from maps, so hpelint's own output obeys the determinism analyzer's rules.

// CGEdgeKind classifies how a call edge was resolved.
type CGEdgeKind int

const (
	// EdgeStatic is a direct call to a declared function or method.
	EdgeStatic CGEdgeKind = iota
	// EdgeInterface is a CHA-resolved interface method call.
	EdgeInterface
	// EdgeFuncValue is a call through a function-typed value, resolved to
	// every address-taken function with an identical signature.
	EdgeFuncValue
)

func (k CGEdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	}
	return "unknown"
}

// CGEdge is one resolved call: the syntactic site and the candidate callee.
// An interface or function-value site contributes one edge per candidate.
type CGEdge struct {
	Site   *ast.CallExpr
	Callee *CGNode
	Kind   CGEdgeKind
}

// CGNode is one function in the graph: a declared function/method (Fn set)
// or a function literal (Lit set). Nodes exist only for functions whose body
// was loaded from source; calls into export-data-only dependencies have no
// node.
type CGNode struct {
	Fn   *types.Func  // declared function or method; nil for literals
	Lit  *ast.FuncLit // function literal; nil for declarations
	Pkg  *Package     // the package the body lives in
	Body *ast.BlockStmt
	Pos  token.Pos
	// Name is the node's stable display name: "pkg.Func",
	// "pkg.(*Type).Method", or "pkg.Parent$1" for the Nth literal inside
	// Parent (source order).
	Name string
	// Calls are the node's outgoing edges in source-position order.
	Calls []CGEdge
	// AddressTaken reports the function was referenced outside call
	// position (assigned, passed, stored) and is therefore a candidate
	// callee for function-value calls. Literals not called in place are
	// always address-taken.
	AddressTaken bool
}

// CallGraph is the whole-program graph plus the indexes analyzers query.
type CallGraph struct {
	Fset *token.FileSet
	// Nodes in deterministic order: package load order, then file order,
	// then source position.
	Nodes []*CGNode

	byFunc map[*types.Func]*CGNode
	bySym  map[string]*CGNode
	byLit  map[*ast.FuncLit]*CGNode
}

// NodeOf returns the node for a declared function, or nil. Because the
// loader type-checks each target package against gc export data, the same
// declaration is represented by distinct types.Func objects in its defining
// package (source) and in importers' views (export data); the symbol-string
// fallback bridges the two, so cross-package edges resolve.
func (g *CallGraph) NodeOf(fn *types.Func) *CGNode {
	if n := g.byFunc[fn]; n != nil {
		return n
	}
	return g.bySym[funcSymbol(fn)]
}

// funcSymbol renders a universe-independent key for a declared function:
// "path.(*Recv).Name", "path.(Recv).Name" or "path.Name".
func funcSymbol(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if recv := receiverName(fn); recv != "" {
		return pkgPath + ".(" + recv + ")." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// receiverName is the one rendering of a method's receiver type: its name,
// prefixed with "*" for a pointer receiver ("?" for an unnamed receiver
// such as an interface literal's), or "" for a plain function.
func receiverName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		ptr = "*"
	}
	if named, ok := t.(*types.Named); ok {
		return ptr + named.Obj().Name()
	}
	return ptr + "?"
}

// Reachable walks the graph breadth-first from roots, in deterministic
// order, and returns every node reached. via[n] is the edge-predecessor
// root's name — the first root (in root order) from which n was reached —
// so analyzers can attribute findings. keep filters traversal: a node for
// which keep returns false is neither visited nor traversed through (keep
// nil means no filter).
func (g *CallGraph) Reachable(roots []*CGNode, keep func(*CGNode) bool) (reached map[*CGNode]bool, via map[*CGNode]string) {
	reached = make(map[*CGNode]bool)
	via = make(map[*CGNode]string)
	queue := make([]*CGNode, 0, len(roots))
	for _, r := range roots {
		if r == nil || reached[r] || (keep != nil && !keep(r)) {
			continue
		}
		reached[r] = true
		via[r] = r.Name
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			c := e.Callee
			if c == nil || reached[c] || (keep != nil && !keep(c)) {
				continue
			}
			reached[c] = true
			via[c] = via[n]
			queue = append(queue, c)
		}
	}
	return reached, via
}

// DebugString renders the graph as a deterministic textual dump — one line
// per edge, sorted — used by the determinism tests and available for
// debugging analyzer scope questions.
func (g *CallGraph) DebugString() string {
	var lines []string
	for _, n := range g.Nodes {
		if len(n.Calls) == 0 {
			lines = append(lines, n.Name)
			continue
		}
		for _, e := range n.Calls {
			pos := g.Fset.Position(e.Site.Pos())
			lines = append(lines, fmt.Sprintf("%s -> %s [%s] at %s:%d",
				n.Name, e.Callee.Name, e.Kind, pos.Filename, pos.Line))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// buildCallGraph constructs the graph over the given packages. The package
// slice order (go-list order in production, fixture order in tests) anchors
// node determinism.
func buildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Fset:   fset,
		byFunc: make(map[*types.Func]*CGNode),
		bySym:  make(map[string]*CGNode),
		byLit:  make(map[*ast.FuncLit]*CGNode),
	}
	b := &graphBuilder{g: g, pkgs: pkgs}
	b.collectNodes()
	b.collectTypes()
	b.collectAddressTaken()
	b.resolveCalls()
	return g
}

type graphBuilder struct {
	g    *CallGraph
	pkgs []*Package
	// concreteTypes are the named non-interface types declared across the
	// program, in deterministic order — the CHA candidate universe.
	concreteTypes []types.Type
	// taken are the address-taken candidate callees in deterministic order.
	taken []*CGNode
}

// collectNodes creates a node per declared function and per function
// literal, in deterministic order.
func (b *graphBuilder) collectNodes() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{
					Fn:   fn,
					Pkg:  pkg,
					Body: fd.Body,
					Pos:  fd.Pos(),
					Name: nodeName(pkg, fn),
				}
				b.g.Nodes = append(b.g.Nodes, n)
				b.g.byFunc[fn] = n
				b.g.bySym[funcSymbol(fn)] = n
				b.collectLits(pkg, n.Name, fd.Body)
			}
		}
	}
}

// collectLits adds a node per function literal nested (at any depth) inside
// body, named parent$1, parent$2... in source order. Literals inside other
// literals nest the counter naturally because the outer literal's walk sees
// them first in source order.
func (b *graphBuilder) collectLits(pkg *Package, parent string, body *ast.BlockStmt) {
	i := 0
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		i++
		node := &CGNode{
			Lit:  lit,
			Pkg:  pkg,
			Body: lit.Body,
			Pos:  lit.Pos(),
			Name: fmt.Sprintf("%s$%d", parent, i),
		}
		b.g.Nodes = append(b.g.Nodes, node)
		b.g.byLit[lit] = node
		return true
	})
}

// nodeName renders a declared function's stable name: "pkg.Func",
// "pkg.Type.Method" or "pkg.(*Type).Method".
func nodeName(pkg *Package, fn *types.Func) string {
	switch recv := receiverName(fn); {
	case strings.HasPrefix(recv, "*"):
		return pkg.Types.Name() + ".(" + recv + ")." + fn.Name()
	case recv != "":
		return pkg.Types.Name() + "." + recv + "." + fn.Name()
	}
	return pkg.Types.Name() + "." + fn.Name()
}

// collectTypes gathers every named non-interface type declared in the
// program — the CHA candidate universe — in deterministic order.
func (b *graphBuilder) collectTypes() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || tn.IsAlias() {
					return true
				}
				t := tn.Type()
				if _, isIface := t.Underlying().(*types.Interface); isIface {
					return true
				}
				b.concreteTypes = append(b.concreteTypes, t)
				return true
			})
		}
	}
}

// collectAddressTaken marks every declared function referenced outside call
// position and every function literal not called in place — the candidate
// callees for function-value calls.
func (b *graphBuilder) collectAddressTaken() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			inspectWithStack([]*ast.File{file}, func(n ast.Node, stack []ast.Node) bool {
				switch v := n.(type) {
				case *ast.Ident:
					fn, ok := pkg.Info.Uses[v].(*types.Func)
					if !ok {
						return true
					}
					if node := b.g.NodeOf(fn); node != nil && !isCallee(v, stack) {
						node.AddressTaken = true
					}
				case *ast.FuncLit:
					if node := b.g.byLit[v]; node != nil && !isCallee(v, stack) {
						node.AddressTaken = true
					}
				}
				return true
			})
		}
	}
	for _, n := range b.g.Nodes {
		if n.AddressTaken {
			b.taken = append(b.taken, n)
		}
	}
}

// isCallee reports whether expr is (possibly through selectors/parens) the
// function operand of a call — i.e. referenced in call position, which is
// not an address-taking use.
func isCallee(expr ast.Node, stack []ast.Node) bool {
	child := expr
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr, *ast.ParenExpr:
			child = p.(ast.Node)
			continue
		case *ast.CallExpr:
			return ast.Unparen(p.Fun) == child || p.Fun == child
		}
		return false
	}
	return false
}

// resolveCalls walks every node's body (excluding nested literal bodies,
// which belong to their own nodes) and resolves each call site to edges.
func (b *graphBuilder) resolveCalls() {
	for _, n := range b.g.Nodes {
		b.resolveNodeCalls(n)
	}
}

func (b *graphBuilder) resolveNodeCalls(n *CGNode) {
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit.Body != n.Body {
			return false // nested literal: its calls belong to its own node
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		n.Calls = append(n.Calls, b.resolveSite(n.Pkg, call)...)
		return true
	})
}

// resolveSite resolves one call site to zero or more edges.
func (b *graphBuilder) resolveSite(pkg *Package, call *ast.CallExpr) []CGEdge {
	fun := ast.Unparen(call.Fun)

	// A literal called in place: one static edge, no dynamic fan-out.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if node := b.g.byLit[lit]; node != nil {
			return []CGEdge{{Site: call, Callee: node, Kind: EdgeStatic}}
		}
		return nil
	}

	if fn := calleeFunc(pkg.Info, call); fn != nil {
		if iface := interfaceRecv(fn); iface != nil {
			return b.resolveInterfaceCall(call, fn, iface)
		}
		if node := b.g.NodeOf(fn); node != nil {
			return []CGEdge{{Site: call, Callee: node, Kind: EdgeStatic}}
		}
		return nil // body outside the loaded program (stdlib, export data)
	}

	// Not a named callee: conversion, builtin, or a call through a
	// function-typed value. Only the last gets (dynamic) edges.
	if tv, ok := pkg.Info.Types[call.Fun]; !ok || tv.IsType() {
		return nil
	}
	sig := calleeSignature(pkg.Info, call)
	if sig == nil {
		return nil
	}
	var edges []CGEdge
	for _, cand := range b.taken {
		if identicalSignatures(nodeSignature(cand), sig) {
			edges = append(edges, CGEdge{Site: call, Callee: cand, Kind: EdgeFuncValue})
		}
	}
	return edges
}

// interfaceRecv returns the interface type fn is declared on, or nil for
// concrete methods and plain functions.
func interfaceRecv(fn *types.Func) *types.Interface {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// resolveInterfaceCall resolves x.M() on an interface receiver CHA-style:
// every named concrete program type implementing the interface contributes
// its M.
func (b *graphBuilder) resolveInterfaceCall(call *ast.CallExpr, fn *types.Func, iface *types.Interface) []CGEdge {
	var edges []CGEdge
	for _, t := range b.concreteTypes {
		var impl types.Type
		switch {
		case types.Implements(t, iface):
			impl = t
		case types.Implements(types.NewPointer(t), iface):
			impl = types.NewPointer(t)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, fn.Pkg(), fn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := b.g.NodeOf(m); node != nil {
			edges = append(edges, CGEdge{Site: call, Callee: node, Kind: EdgeInterface})
		}
	}
	return edges
}

// nodeSignature returns the signature of a node's function or literal.
func nodeSignature(n *CGNode) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
			sig, _ := tv.Type.(*types.Signature)
			return sig
		}
	}
	return nil
}

// identicalSignatures compares two signatures ignoring receivers (a method
// value's type has no receiver; a stored method expression does).
func identicalSignatures(a, b *types.Signature) bool {
	if a == nil || b == nil {
		return false
	}
	ar := types.NewSignatureType(nil, nil, nil, a.Params(), a.Results(), a.Variadic())
	br := types.NewSignatureType(nil, nil, nil, b.Params(), b.Results(), b.Variadic())
	return types.Identical(ar, br)
}
