package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerCtxFlow enforces end-to-end context threading, the contract the
// daemon's cancellation path (hpe.WithContext → gpu → sim.Engine polling)
// depends on. Two rules:
//
//  1. context.Background()/context.TODO() may appear only in package main
//     and in tests — everywhere else a fresh root context severs the
//     caller's cancellation chain;
//  2. a function that receives a context.Context must thread it: calling a
//     context-accepting callee with a fresh Background()/TODO() instead of
//     the in-scope ctx is reported even in main, because there the caller's
//     ctx demonstrably exists and is being dropped.
var AnalyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "require contexts to be threaded end-to-end; no context.Background/" +
		"TODO outside main and tests",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, pkg := range pass.Packages {
		info := pkg.Info
		reported := map[token.Pos]bool{}
		inspectWithStack(pkg.Files, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Rule 2: dropping an in-scope ctx on the floor.
			if enclosingHasCtx(info, stack) {
				sig := calleeSignature(info, call)
				if sig != nil && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type()) &&
					len(call.Args) > 0 && isFreshContext(info, call.Args[0]) {
					pass.Reportf(call.Args[0].Pos(),
						"%s receives a context but passes a fresh %s to %s: thread the "+
							"caller's ctx or cancellation silently stops here",
						enclosingFuncName(stack), freshContextName(info, call.Args[0]), calleeLabel(info, call))
					reported[freshContextPos(call.Args[0])] = true
				}
			}
			// Rule 1: fresh root contexts outside main/tests.
			if isFreshContext(info, ast.Expr(call)) && !reported[call.Pos()] {
				if pkg.Types.Name() == "main" {
					return true
				}
				file := pass.Fset.Position(call.Pos()).Filename
				if strings.HasSuffix(file, "_test.go") {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s outside package main or tests: accept a ctx parameter so "+
						"callers control cancellation", freshContextName(info, ast.Expr(call)))
			}
			return true
		})
	}
}

// isContextType matches the context.Context interface type.
func isContextType(t types.Type) bool { return namedTypeIn(t, "context", "Context") }

// isFreshContext reports whether e is a direct call to context.Background
// or context.TODO.
func isFreshContext(info *types.Info, e ast.Expr) bool {
	return freshContextName(info, e) != ""
}

// freshContextName returns "context.Background()"/"context.TODO()" when e
// is such a call, else "".
func freshContextName(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	switch fullFuncName(calleeFunc(info, call)) {
	case "context.Background":
		return "context.Background()"
	case "context.TODO":
		return "context.TODO()"
	}
	return ""
}

// freshContextPos returns the position of the underlying Background/TODO
// call inside e (which may be parenthesized).
func freshContextPos(e ast.Expr) token.Pos {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return call.Pos()
	}
	return e.Pos()
}

// enclosingHasCtx reports whether any enclosing function on the stack
// declares a parameter of type context.Context (closures inherit their
// enclosing function's ctx by capture).
func enclosingHasCtx(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch v := stack[i].(type) {
		case *ast.FuncLit:
			ft = v.Type
		case *ast.FuncDecl:
			ft = v.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			if t := info.TypeOf(field.Type); t != nil && isContextType(t) {
				return true
			}
		}
	}
	return false
}

// calleeLabel names the called function for diagnostics: "pkg.Func",
// "recv.Method" or the expression text fallback.
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	if path, ok := flattenPath(call.Fun); ok {
		return path
	}
	return "callee"
}
