package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// AnalyzerLocked checks `// guarded by <mu>` field annotations: a struct
// field carrying that comment may only be read or written in a function
// that demonstrably holds the named mutex on the same receiver path —
// a lexically preceding `x.mu.Lock()` / `x.mu.RLock()`, where `x` is the
// base of the field access. Helper
// functions that run entirely under a caller's lock opt out by convention:
// a name ending in "Locked" asserts the precondition instead of proving it.
//
// The check is lexical, not path-sensitive: it proves "this function locks
// before it touches", which is exactly the discipline the server's result
// cache and the suite's shared caches document and the race subset only
// samples.
var AnalyzerLocked = &Analyzer{
	Name: "locked",
	Doc: "fields annotated `// guarded by mu` must be accessed with the " +
		"named mutex held (or from a *Locked helper)",
	Run: runLocked,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

func runLocked(pass *Pass) {
	for _, pkg := range pass.Packages {
		guarded := collectGuardedFields(pkg)
		if len(guarded) == 0 {
			continue
		}
		inspectWithStack(pkg.Files, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pkg.Info.Selections[sel]
			if selection == nil || selection.Kind() != types.FieldVal {
				return true
			}
			fieldVar, ok := selection.Obj().(*types.Var)
			if !ok {
				return true
			}
			mu, isGuarded := guarded[fieldVar]
			if !isGuarded {
				return true
			}
			base, ok := flattenPath(sel.X)
			if !ok {
				pass.Reportf(sel.Pos(),
					"field %s is guarded by %s but accessed through an expression that "+
						"cannot be matched to a lock", fieldVar.Name(), mu)
				return true
			}
			if fname := enclosingFuncName(stack); strings.HasSuffix(fname, "Locked") {
				return true
			}
			if holdsLock(stack, sel, base, mu) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"field %s is guarded by %s but accessed without %s.%s held",
				fieldVar.Name(), mu, base, mu)
			return true
		})
	}
}

// collectGuardedFields maps a package's annotated field objects to their
// mutex name.
func collectGuardedFields(pkg *Package) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment, or "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// holdsLock reports whether some enclosing function body contains a call to
// <base>.<mu>.Lock or RLock lexically before the access (which the
// canonical `mu.Lock(); defer mu.Unlock()` pair always satisfies).
func holdsLock(stack []ast.Node, access *ast.SelectorExpr, base, mu string) bool {
	lockPath := base + "." + mu
	for _, body := range enclosingFuncBodies(stack) {
		if body == nil {
			continue
		}
		held := false
		ast.Inspect(body, func(n ast.Node) bool {
			if held {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvPath, ok := flattenPath(sel.X)
			if !ok || recvPath != lockPath {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if call.Pos() < access.Pos() {
					held = true
				}
			}
			return true
		})
		if held {
			return true
		}
	}
	return false
}
