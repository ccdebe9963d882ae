package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerHotAlloc machine-guards the PR-6 zero-allocation win: every
// function reachable (over the whole-program call graph) from the simulation
// hot-path roots — sim.Engine.Step, the gpu/uvm event handlers (OnEvent),
// and the TLB lookup entry point — is flagged for constructs that allocate
// per event:
//
//   - &composite literals and slice/map composite literals;
//   - make and new calls;
//   - function literals that capture enclosing variables (closure alloc);
//   - interface boxing: a concrete non-pointer value converted to an
//     interface argument, assignment or return;
//   - fmt calls and string concatenation;
//   - un-presized append: appending to a function-local slice that was not
//     created by make (field- and parameter-backed slices amortize across
//     events by the free-list idiom and stay silent).
//
// The root set extends structurally (package/type/method match, so the check
// follows renames of files but not of the entry points themselves) and by
// annotation: a function whose doc comment contains a `//hpelint:hotpath`
// line is an additional root — fixtures use it, and so can future subsystems
// that join the per-event path.
//
// The reachability walk is bounded to the simulator-core packages
// (hotPkgScope) plus any package that declares a root: probe implementations
// and the stats histograms, for example, are deliberately outside — their
// allocations are the priced cost of *probed* runs, while this analyzer
// guards the nil-probe fast path.
var AnalyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid per-event heap allocation (composite literals, closures, " +
		"boxing, fmt/string concat, un-presized append) in functions " +
		"reachable from the simulation hot-path roots",
	Run: runHotAlloc,
}

// hotPkgScope bounds the reachability walk: the per-event simulator core.
var hotPkgScope = []string{
	"internal/sim", "internal/gpu", "internal/uvm", "internal/tlb", "internal/cache",
	"internal/hir", "internal/mem", "internal/dram", "internal/ptw",
	"internal/addrspace", "internal/policy", "internal/trace", "internal/pagetable", "internal/hpe",
}

// hotRoots are the structural hot-path entry points: (package name,
// receiver type or "" for any, method name).
var hotRoots = []struct{ pkg, typ, method string }{
	{"sim", "Engine", "Step"},
	{"gpu", "", "OnEvent"},
	{"uvm", "", "OnEvent"},
	{"tlb", "TLB", "Lookup"},
}

// hotpathMarker is the doc-comment line that declares an additional root.
const hotpathMarker = "//hpelint:hotpath"

func runHotAlloc(pass *Pass) {
	g := pass.Graph()
	roots, rootPkgs := hotallocRoots(g)
	if len(roots) == 0 {
		return
	}
	keep := func(n *CGNode) bool {
		return rootPkgs[n.Pkg] || pass.InScope(n.Pkg.ImportPath, hotPkgScope, nil)
	}
	reached, via := g.Reachable(roots, keep)
	for _, n := range g.Nodes { // slice order keeps reports deterministic
		if reached[n] {
			checkHotNode(pass, n, via[n])
		}
	}
}

// hotallocRoots resolves the root set: the structural entry points plus
// every //hpelint:hotpath-annotated declaration.
func hotallocRoots(g *CallGraph) ([]*CGNode, map[*Package]bool) {
	var roots []*CGNode
	rootPkgs := make(map[*Package]bool)
	add := func(n *CGNode) {
		roots = append(roots, n)
		rootPkgs[n.Pkg] = true
	}
	for _, n := range g.Nodes {
		if n.Fn == nil {
			continue
		}
		if markedHotpath(n) {
			add(n)
			continue
		}
		for _, r := range hotRoots {
			if n.Pkg.Types.Name() != r.pkg || n.Fn.Name() != r.method {
				continue
			}
			if r.typ != "" && strings.TrimPrefix(receiverName(n.Fn), "*") != r.typ {
				continue
			}
			add(n)
			break
		}
	}
	return roots, rootPkgs
}

// markedHotpath reports whether the node's declaration doc comment carries
// the //hpelint:hotpath marker.
func markedHotpath(n *CGNode) bool {
	if n.Fn == nil {
		return false
	}
	for _, file := range n.Pkg.Files {
		if n.Pos < file.Pos() || n.Pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Pos() != n.Pos || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, hotpathMarker) {
					return true
				}
			}
		}
	}
	return false
}

// checkHotNode scans one hot function body for allocating constructs.
// Nested literal bodies are skipped — each literal is its own (possibly
// reachable) node.
func checkHotNode(pass *Pass, n *CGNode, root string) {
	info := n.Pkg.Info
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit.Body != n.Body {
			// The literal's own body is checked under its own node; here only
			// the closure-capture cost of *creating* it is charged.
			checkClosureCapture(pass, info, lit, n, root)
			return false
		}
		switch v := x.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if cl, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					pass.Reportf(cl.Pos(),
						"hot path: &composite literal escapes to the heap "+
							"(reachable from %s); reuse pooled state or restructure", root)
				}
			}
		case *ast.CompositeLit:
			if allocatingLiteralType(info, v) {
				pass.Reportf(v.Pos(),
					"hot path: slice/map composite literal allocates per event "+
						"(reachable from %s); hoist to setup or reuse a buffer", root)
			}
		case *ast.CallExpr:
			if isPanicCall(info, v) {
				// A panic argument allocates exactly once, on a path that
				// ends the run; pricing it would just push the message
				// formatting out of the panic.
				return false
			}
			checkHotCall(pass, info, v, n, root)
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringType(info, v.X) && !isConstExpr(info, v) {
				pass.Reportf(v.Pos(),
					"hot path: string concatenation allocates "+
						"(reachable from %s); precompute or use fixed identifiers", root)
			}
		case *ast.AssignStmt:
			checkBoxingAssign(pass, info, v, root)
		case *ast.ReturnStmt:
			checkBoxingReturn(pass, info, v, n, root)
		}
		return true
	})
}

// allocatingLiteralType reports whether a (non-address-taken) composite
// literal's type allocates: slices and maps always do; value structs and
// arrays do not.
func allocatingLiteralType(info *types.Info, cl *ast.CompositeLit) bool {
	tv, ok := info.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// checkClosureCapture flags function literals that capture enclosing
// variables: each creation allocates the closure (and often moves captures
// to the heap). Capture-free literals compile to static funcs and are fine.
func checkClosureCapture(pass *Pass, info *types.Info, lit *ast.FuncLit, n *CGNode, root string) {
	captured := ""
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared in an enclosing function — i.e. outside the
		// literal's own span but not at package scope.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
			return false
		}
		return true
	})
	if captured != "" {
		pass.Reportf(lit.Pos(),
			"hot path: closure captures %q and allocates per event "+
				"(reachable from %s); use Register/Schedule handler IDs or a pooled continuation", captured, root)
	}
}

// checkHotCall flags allocating calls: make/new, fmt, and un-presized
// append; and boxes concrete arguments passed to interface parameters.
func checkHotCall(pass *Pass, info *types.Info, call *ast.CallExpr, n *CGNode, root string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				pass.Reportf(call.Pos(),
					"hot path: make allocates per event (reachable from %s); "+
						"hoist to setup or reuse pooled storage", root)
			case "new":
				pass.Reportf(call.Pos(),
					"hot path: new allocates per event (reachable from %s); "+
						"reuse pooled state", root)
			case "append":
				checkHotAppend(pass, info, call, n, root)
			}
			return
		}
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"hot path: fmt.%s allocates and reflects per event (reachable from %s); "+
				"move formatting off the event path", fn.Name(), root)
		return
	}
	checkBoxingArgs(pass, info, call, root)
}

// checkHotAppend flags append calls whose appendee is a function-local
// slice not created by make. Fields and parameters stay silent: the PR-6
// idiom pre-sizes or free-lists them, and growth amortizes across events.
func checkHotAppend(pass *Pass, info *types.Info, call *ast.CallExpr, n *CGNode, root string) {
	if len(call.Args) == 0 {
		return
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return // field paths (x.buf) and complex expressions: reuse idiom
	}
	v, ok := info.Uses[base].(*types.Var)
	if !ok || v.IsField() {
		return
	}
	// Package-level and parameter slices are presumed presized by setup.
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return
	}
	if isParamOf(n, v) {
		return
	}
	if localMadeWithMake(info, n.Body, v) {
		return
	}
	pass.Reportf(call.Pos(),
		"hot path: append to un-presized local %q allocates on growth "+
			"(reachable from %s); presize with make or reuse a field", v.Name(), root)
}

// isParamOf reports whether v is a parameter (or named result, or receiver)
// of the node's function.
func isParamOf(n *CGNode, v *types.Var) bool {
	sig := nodeSignature(n)
	if sig == nil {
		return false
	}
	if sig.Recv() == v {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == v {
			return true
		}
	}
	return false
}

// localMadeWithMake reports whether v's defining assignment inside body is a
// make call (any make presizes; the lexical approximation documented in
// DESIGN.md §10).
func localMadeWithMake(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	made := false
	ast.Inspect(body, func(x ast.Node) bool {
		if made {
			return false
		}
		as, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != v {
				continue
			}
			if c, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				if fid, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && fid.Name == "make" {
					made = true
					return false
				}
			}
		}
		return true
	})
	return made
}

// checkBoxingArgs flags concrete non-pointer values passed to interface
// parameters — each such pass allocates the interface's data word.
func checkBoxingArgs(pass *Pass, info *types.Info, call *ast.CallExpr, root string) {
	sig := calleeSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		reportBoxing(pass, info, arg, pt, root, "argument")
	}
}

// checkBoxingAssign flags concrete values assigned into interface-typed
// destinations.
func checkBoxingAssign(pass *Pass, info *types.Info, as *ast.AssignStmt, root string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt, ok := info.Types[as.Lhs[i]]
		if !ok || lt.Type == nil {
			continue
		}
		reportBoxing(pass, info, as.Rhs[i], lt.Type, root, "assignment")
	}
}

// checkBoxingReturn flags concrete values returned as interface results.
func checkBoxingReturn(pass *Pass, info *types.Info, ret *ast.ReturnStmt, n *CGNode, root string) {
	sig := nodeSignature(n)
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		reportBoxing(pass, info, res, sig.Results().At(i).Type(), root, "return")
	}
}

// reportBoxing reports expr if converting it to dst boxes: dst is a
// non-error interface and expr's static type is a concrete non-pointer-like
// non-constant value. Pointers, channels, maps, funcs and unsafe pointers
// fit the interface data word without allocating; untyped constants are
// folded or interned by the compiler; error is exempt because hot-path
// error returns are nil on the fast path and already off it when non-nil.
func reportBoxing(pass *Pass, info *types.Info, expr ast.Expr, dst types.Type, root, context string) {
	if _, ok := dst.Underlying().(*types.Interface); !ok || isErrorType(dst) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	pass.Reportf(expr.Pos(),
		"hot path: %s boxes a concrete %s into an interface and allocates "+
			"(reachable from %s); pass a pointer or keep the call monomorphic",
		context, tv.Type.String(), root)
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "error" && obj.Pkg() == nil
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isConstExpr reports whether e folded to a compile-time constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// isStringType reports whether e's static type is (underlying) string.
func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
