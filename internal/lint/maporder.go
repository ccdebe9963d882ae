package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerMapOrder flags `range` over a map whose body leaks the iteration
// order into observable output — the classic byte-identity killer behind
// non-reproducible results.json files and cache-vs-fresh mismatches.
//
// Two shapes are reported:
//
//  1. the body appends to a slice declared outside the loop and no
//     sort call over that slice follows the loop in the same block;
//  2. the body writes directly to an order-sensitive sink: fmt print
//     functions, Write/WriteString/WriteByte/WriteRune methods (io.Writer
//     and hash.Hash share this surface) or an Encode method (encoding/json
//     streams) — there is no way to sort after the fact.
//
// Populating another map, counting, or reducing with a commutative fold are
// all order-insensitive and stay silent.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order reaches output (unsorted slice " +
		"accumulation, direct writes, hashing, JSON encoding)",
	Run: runMapOrder,
}

// sinkMethods are method names through which iteration order becomes bytes.
var sinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

// fmtSinks are fmt package-level functions that emit output. The pure
// formatting functions (Sprintf etc.) are excluded: a string built per key
// is only hazardous if it then escapes unsorted, which shape 1 catches.
var fmtSinks = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapOrder(pass *Pass) {
	for _, pkg := range pass.Packages {
		inspectWithStack(pkg.Files, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, pkg.Info, rs, stack)
			return true
		})
	}
}

func checkMapRange(pass *Pass, info *types.Info, rs *ast.RangeStmt, stack []ast.Node) {
	// Shape 2: order-sensitive sinks anywhere in the body.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil {
			if fn.Pkg() != nil && fn.Pkg().Name() == "fmt" && fmtSinks[fn.Name()] {
				pass.Reportf(call.Pos(),
					"map iteration order reaches output through fmt.%s: collect and "+
						"sort keys first", fn.Name())
			}
			return true
		}
		if sinkMethods[fn.Name()] {
			pass.Reportf(call.Pos(),
				"map iteration order reaches an order-sensitive sink (%s): collect "+
					"and sort keys before emitting", fn.Name())
		}
		return true
	})

	// Shape 1: unsorted accumulation into an outer slice.
	appends := mapRangeAppends(info, rs)
	for _, ap := range appends {
		if sortFollows(info, rs, stack, ap.path) {
			continue
		}
		pass.Reportf(ap.pos,
			"append to %s inside map iteration with no subsequent sort: element "+
				"order is nondeterministic", ap.path)
	}
}

type outerAppend struct {
	path string
	pos  token.Pos
}

// mapRangeAppends finds `x = append(x, ...)` statements in the loop body
// where x is rooted outside the loop (a pre-declared slice or a field).
func mapRangeAppends(info *types.Info, rs *ast.RangeStmt) []outerAppend {
	var out []outerAppend
	seen := map[string]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				continue
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			path, ok := flattenPath(call.Args[0])
			if !ok || i >= len(as.Lhs) {
				continue
			}
			if lhs, ok := flattenPath(as.Lhs[i]); !ok || lhs != path {
				continue
			}
			if !rootedOutside(info, call.Args[0], rs) || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, outerAppend{path: path, pos: as.Pos()})
		}
		return true
	})
	return out
}

// rootedOutside reports whether the root identifier of e was declared
// before the range statement (or is a field selection, necessarily outer).
func rootedOutside(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(v)
		return obj != nil && obj.Pos() < rs.Pos()
	case *ast.SelectorExpr:
		return true
	}
	return false
}

// sortFollows reports whether, after the range statement in its enclosing
// block, some statement calls a sort.* function or a slices.Sort* variant
// with the accumulated slice among its arguments.
func sortFollows(info *types.Info, rs *ast.RangeStmt, stack []ast.Node, path string) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rs) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			isSort := fn.Pkg().Path() == "sort" ||
				(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
			if !isSort {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if expr, ok := a.(ast.Expr); ok {
						if p, ok := flattenPath(expr); ok && p == path {
							found = true
						}
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
