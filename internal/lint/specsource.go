package lint

import (
	"go/ast"
)

// specsourceExempt lists the packages allowed to construct gpu.Config
// directly: the spec materializer that owns the Spec → Config mapping, and
// the gpu package that defines the type.
var specsourceExempt = []string{"internal/runspec", "internal/gpu"}

// AnalyzerSpecSource enforces the canonical-run-description contract
// (DESIGN.md §12): a simulation's configuration is described by a
// runspec.Spec and materialized in exactly one place, so every knob exists
// once and every layer lands on the same content-addressed identity. A
// gpu.Config assembled by hand elsewhere silently forks that mapping — the
// per-layer knob-plumbing this rule exists to keep deleted. A sanctioned
// construction site (a documentation table that runs nothing on the config)
// carries a //lint:ignore hpelint/specsource directive.
var AnalyzerSpecSource = &Analyzer{
	Name: "specsource",
	Doc: "forbid gpu.Config construction outside internal/runspec and " +
		"internal/gpu: describe runs as runspec.Specs and materialize them " +
		"in one place",
	Scope: func(pkgPath string) bool { return !pathHasSuffixAny(pkgPath, specsourceExempt) },
	Run:   runSpecSource,
}

func runSpecSource(pass *Pass) {
	inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, v)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "gpu" && fn.Name() == "DefaultConfig" {
				pass.Reportf(v.Pos(),
					"gpu.DefaultConfig called outside the spec materializer: describe the run "+
						"as a runspec.Spec and let Materialize build the config (DESIGN.md §12)")
			}
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(v); t != nil && namedTypeIn(t, "gpu", "Config") {
				pass.Reportf(v.Pos(),
					"gpu.Config composite literal outside the spec materializer: describe the run "+
						"as a runspec.Spec and let Materialize build the config (DESIGN.md §12)")
			}
		}
		return true
	})
}
