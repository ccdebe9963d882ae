package lint

import (
	"go/ast"
	"go/types"
)

// determinismScope lists the simulator packages whose outputs feed golden
// files and the content-addressed result cache. Wall-clock reads, global
// RNG state or racy select choices inside them can silently change results
// between runs — the exact failure mode the cache then freezes as "truth".
var determinismScope = []string{
	"internal/sim", "internal/gpu", "internal/uvm", "internal/hir",
	"internal/tlb", "internal/ptw", "internal/policy", "internal/workload",
	"internal/experiments",
}

// randGlobalExempt lists math/rand package-level functions that construct
// explicitly seeded state rather than consuming the shared global RNG.
var randGlobalExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// AnalyzerDeterminism forbids nondeterminism sources inside the simulator
// core: time.Now/time.Since, math/rand global-state functions (seeded
// *rand.Rand instances are fine), and select statements with two or more
// communication cases (the runtime picks a ready case uniformly at random).
var AnalyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, unseeded RNG use and multi-ready selects " +
		"in simulator packages whose outputs must be byte-reproducible",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, pkg := range pass.Packages {
		if !pass.InScope(pkg.ImportPath, determinismScope, nil) {
			continue
		}
		inspectWithStack(pkg.Files, func(n ast.Node, stack []ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, pkg.Info, v)
			case *ast.SelectStmt:
				comm := 0
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(v.Pos(),
						"select with %d communication cases: the runtime chooses a ready case "+
							"pseudo-randomly, so simulator state must not depend on which wins", comm)
				}
			}
			return true
		})
	}
}

func checkDeterminismCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fullFuncName(fn) {
	case "time.Now", "time.Since":
		pass.Reportf(call.Pos(),
			"%s reads the wall clock: simulated time must come from the engine's "+
				"cycle counter or results differ run to run", fullFuncName(fn))
		return
	}
	pkgPath := fn.Pkg().Path()
	if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		// Methods on *rand.Rand are fine: the instance was necessarily
		// constructed from an explicit source.
		return
	}
	if randGlobalExempt[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(),
		"%s.%s uses the process-global RNG: construct rand.New(rand.NewSource(seed)) "+
			"so runs replay bit-identically", pkgPath, fn.Name())
}
