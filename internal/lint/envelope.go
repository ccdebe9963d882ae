package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// AnalyzerEnvelope enforces the /v1 error-envelope contract on the HTTP
// serving layers: every error a handler emits must go through the typed
// envelope (server.WriteError / EncodeError) with a code from the closed
// ErrorCode vocabulary. Concretely:
//
//   - net/http.Error bypasses the envelope entirely and is always flagged;
//   - w.WriteHeader(<constant >= 400>) is a raw, envelope-less error status;
//   - an ErrorCode-typed argument or keyed composite-literal field
//     (&server.Error{Code: ...}) must be a declared constant of the package
//     that declares the ErrorCode type, or an ErrorCode-typed variable
//     threading an existing code — string literals and cross-package
//     conversions mint vocabulary the clients never agreed to;
//   - a return statement in a ResponseWriter-bearing function whose
//     preceding statements (in the innermost block) never touch the writer
//     is a path that silently drops the response.
//
// The return-path rule is lexical per innermost block; a path that responds
// through a helper invisible to it earns a //lint:ignore hpelint/envelope
// with the reason.
var AnalyzerEnvelope = &Analyzer{
	Name: "envelope",
	Doc:  "require /v1 error paths to end in the typed error envelope with a vocabulary code",
	Run:  runEnvelope,
}

// envelopePkgScope is where /v1 error codes are created: the handler set
// and its local executor (internal/server), and the coordinator's ring
// executor (internal/cluster), which builds error envelopes itself.
var envelopePkgScope = []string{
	"internal/server",
	"internal/cluster",
}

func runEnvelope(pass *Pass) {
	for _, pkg := range pass.Packages {
		if !pass.InScope(pkg.ImportPath, envelopePkgScope, nil) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkEnvelopeCalls(pass, pkg, fd)
				checkEnvelopeReturns(pass, pkg, fd.Type, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkEnvelopeReturns(pass, pkg, lit.Type, lit.Body)
					}
					return true
				})
			}
		}
	}
}

// checkEnvelopeCalls applies the call-shaped rules (http.Error, raw
// WriteHeader, ErrorCode provenance) and the composite-literal field rule to
// the whole declaration subtree, nested literals included.
func checkEnvelopeCalls(pass *Pass, pkg *Package, fd *ast.FuncDecl) {
	info := pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			checkCodeFields(pass, pkg, info, lit)
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			checkCodeConversion(pass, pkg, call, tv.Type)
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "Error" {
			pass.Reportf(call.Pos(), "http.Error bypasses the /v1 error envelope; use WriteError with a vocabulary code")
			return true
		}
		checkRawWriteHeader(pass, info, call)
		checkCodeArgs(pass, pkg, info, call)
		return true
	})
}

// checkRawWriteHeader flags w.WriteHeader with a constant error status —
// an enveloped response would carry the status through WriteError instead.
func checkRawWriteHeader(pass *Pass, info *types.Info, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return
	}
	if tv, ok := info.Types[sel.X]; !ok || !namedTypeIn(tv.Type, "http", "ResponseWriter") {
		return
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	status, ok := constant.Int64Val(tv.Value)
	if ok && status >= 400 {
		pass.Reportf(call.Pos(), "raw WriteHeader(%d) bypasses the /v1 error envelope; use WriteError", status)
	}
}

// errorCodeNamed returns t as the named ErrorCode type (underlying string,
// name "ErrorCode"), or nil.
func errorCodeNamed(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "ErrorCode" {
		return nil
	}
	if basic, ok := named.Underlying().(*types.Basic); !ok || basic.Kind() != types.String {
		return nil
	}
	return named
}

// checkCodeConversion flags ErrorCode conversions outside the package that
// declares the type: minting codes the closed vocabulary does not contain.
func checkCodeConversion(pass *Pass, pkg *Package, call *ast.CallExpr, target types.Type) {
	named := errorCodeNamed(target)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	if pkg.Types != nil && named.Obj().Pkg() == pkg.Types {
		return // the declaring package may construct its own codes
	}
	pass.Reportf(call.Pos(), "conversion to %s.ErrorCode mints an error code outside its declaring package; use a declared vocabulary constant",
		named.Obj().Pkg().Name())
}

// checkCodeArgs verifies every ErrorCode-typed argument resolves to a
// declared constant of the vocabulary's package, or threads an existing
// ErrorCode-typed value.
func checkCodeArgs(pass *Pass, pkg *Package, info *types.Info, call *ast.CallExpr) {
	sig := calleeSignature(info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() && !sig.Variadic() {
			break
		}
		pi := i
		if pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		checkCode(pass, pkg, info, arg, sig.Params().At(pi).Type())
	}
}

// checkCodeFields verifies every ErrorCode-typed field set by a keyed
// composite literal the way checkCodeArgs verifies arguments.
func checkCodeFields(pass *Pass, pkg *Package, info *types.Info, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if field, ok := info.Uses[key].(*types.Var); ok && field.IsField() {
			checkCode(pass, pkg, info, kv.Value, field.Type())
		}
	}
}

// checkCode reports e, the value filling a slot of type slot, when the slot
// is an ErrorCode and e is not a vocabulary code.
func checkCode(pass *Pass, pkg *Package, info *types.Info, e ast.Expr, slot types.Type) {
	named := errorCodeNamed(slot)
	if named == nil || named.Obj().Pkg() == nil || vocabularyCode(pkg, info, e, named) {
		return
	}
	pass.Reportf(e.Pos(), "error code %s is not a declared constant of the closed /v1 vocabulary (%s.ErrorCode)",
		describeExpr(e), named.Obj().Pkg().Name())
}

// vocabularyCode reports whether an ErrorCode value is legitimate: a
// constant declared next to the type, any ErrorCode-typed variable or field
// (threading), or a construction inside the declaring package itself.
func vocabularyCode(pkg *Package, info *types.Info, arg ast.Expr, named *types.Named) bool {
	if pkg.Types != nil && named.Obj().Pkg() == pkg.Types {
		return true
	}
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		return declaredCodeObj(info.Uses[e], named)
	case *ast.SelectorExpr:
		return declaredCodeObj(info.Uses[e.Sel], named)
	}
	return false
}

// declaredCodeObj accepts constants from the vocabulary's declaring package
// and any ErrorCode-typed variable (parameters, struct fields, locals that
// themselves passed this check at assignment-conversion time).
func declaredCodeObj(obj types.Object, named *types.Named) bool {
	switch o := obj.(type) {
	case *types.Const:
		return o.Pkg() == named.Obj().Pkg()
	case *types.Var:
		return true
	}
	return false
}

// describeExpr renders a short label for the offending argument.
func describeExpr(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return v.Value
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if id, ok := v.X.(*ast.Ident); ok {
			return id.Name + "." + v.Sel.Name
		}
		return v.Sel.Name
	}
	return "expression"
}

// checkEnvelopeReturns applies the response-dropping rule to one function
// body: a return whose innermost enclosing block never touched the
// function's ResponseWriter parameter before it is a path with no response.
func checkEnvelopeReturns(pass *Pass, pkg *Package, ftype *ast.FuncType, body *ast.BlockStmt) {
	w := responseWriterParam(pkg.Info, ftype)
	if w == nil {
		return
	}
	var walk func(stmts []ast.Stmt)
	seenWriter := func(stmts []ast.Stmt, before ast.Stmt) bool {
		for _, st := range stmts {
			if st == before {
				return false
			}
			if stmtTouchesWriter(pkg.Info, st, w) {
				return true
			}
		}
		return false
	}
	var inspectStmt func(st ast.Stmt, siblings []ast.Stmt)
	inspectStmt = func(st ast.Stmt, siblings []ast.Stmt) {
		switch v := st.(type) {
		case *ast.ReturnStmt:
			if !seenWriter(siblings, st) {
				pass.Reportf(v.Pos(), "handler returns without writing a response on this path; error paths must end in the /v1 envelope (WriteError)")
			}
		case *ast.BlockStmt:
			walk(v.List)
		case *ast.IfStmt:
			walk(v.Body.List)
			if v.Else != nil {
				inspectStmt(v.Else, nil)
			}
		case *ast.ForStmt:
			walk(v.Body.List)
		case *ast.RangeStmt:
			walk(v.Body.List)
		case *ast.SwitchStmt:
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walk(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walk(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walk(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			inspectStmt(v.Stmt, siblings)
		}
	}
	walk = func(stmts []ast.Stmt) {
		for _, st := range stmts {
			inspectStmt(st, stmts)
		}
	}
	walk(body.List)
}

// responseWriterParam returns the function's http.ResponseWriter parameter
// object, or nil.
func responseWriterParam(info *types.Info, ftype *ast.FuncType) *types.Var {
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && namedTypeIn(v.Type(), "http", "ResponseWriter") {
				return v
			}
		}
	}
	return nil
}

// stmtTouchesWriter reports whether the statement contains a call involving
// the writer parameter (as argument or method receiver) — i.e. this path
// plausibly responded. Nested function literals are part of the lexical
// path only if invoked, which the lexical rule cannot see; they count.
func stmtTouchesWriter(info *types.Info, st ast.Stmt, w *types.Var) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ast.Inspect(call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == w {
				found = true
				return false
			}
			return !found
		})
		return !found
	})
	return found
}
