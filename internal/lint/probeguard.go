package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerProbeGuard enforces the probe overhead contract (internal/probe
// package doc): a nil probe must cost nothing, so every call through a
// probe.Probe-typed value must be dominated by a nil check on that exact
// receiver. An unguarded emission site either panics on unprobed runs or —
// worse — forces callers to always attach a probe, destroying the
// BenchmarkNilProbe fast path the simulator's hot loop is priced against.
//
// Accepted dominators, checked lexically within the enclosing function:
//
//	if p != nil { p.Emit(...) }            // guard branch (&& chains too)
//	if p == nil { ... } else { p.Emit() }  // else of a nil test (|| chains)
//	if p == nil { return }; p.Emit(...)    // early exit before the call
var AnalyzerProbeGuard = &Analyzer{
	Name: "probeguard",
	Doc: "require every call on a probe.Probe value to be dominated by a " +
		"nil check on that receiver",
	Run: runProbeGuard,
}

func runProbeGuard(pass *Pass) {
	for _, pkg := range pass.Packages {
		info := pkg.Info
		inspectWithStack(pkg.Files, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if info.Selections[sel] == nil {
				return true // qualified identifier (pkg.Func), not a method call
			}
			recv := info.TypeOf(sel.X)
			if recv == nil || !namedTypeIn(recv, "probe", "Probe") {
				return true
			}
			path, ok := flattenPath(sel.X)
			if !ok {
				pass.Reportf(call.Pos(),
					"call of %s on a probe.Probe value that is not a checkable variable: "+
						"bind it to a variable and nil-check before calling", sel.Sel.Name)
				return true
			}
			if !nilCheckDominates(info, call, stack, path) {
				pass.Reportf(call.Pos(),
					"%s.%s called without a dominating `%s != nil` check: unprobed runs "+
						"must keep the zero-cost fast path", path, sel.Sel.Name, path)
			}
			return true
		})
	}
}

// nilCheckDominates reports whether the call node (whose ancestors are
// stack) is dominated by a nil check on path.
func nilCheckDominates(info *types.Info, call *ast.CallExpr, stack []ast.Node, path string) bool {
	// Enclosing if-branches: inside the body of `if path != nil`, or the
	// else of `if path == nil`.
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		inBody := i+1 < len(stack) && stack[i+1] == ast.Node(ifs.Body)
		inElse := i+1 < len(stack) && ifs.Else != nil && stack[i+1] == ast.Node(ifs.Else)
		if inBody && condGuaranteesNonNil(info, ifs.Cond, path) {
			return true
		}
		if inElse && condGuaranteesNil(info, ifs.Cond, path) {
			return true
		}
	}
	// Early exits: a preceding `if path == nil { return/panic/... }` in any
	// enclosing block of the same function.
	for i := len(stack) - 1; i >= 0; i-- {
		switch v := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false // don't look past the function boundary
		case *ast.BlockStmt:
			for _, stmt := range v.List {
				if stmt.Pos() >= call.Pos() {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok {
					continue
				}
				if condGuaranteesNil(info, ifs.Cond, path) && blockTerminates(info, ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}
