// Package lint is hpelint's analyzer framework: a hand-rolled, stdlib-only
// (go/ast + go/parser + go/types, no golang.org/x/tools) static-analysis
// suite that machine-checks the invariants this repository's serving and
// caching layers lean on.
//
// The contracts under check are the ones nothing else enforces mechanically:
//
//   - results must be byte-identical across worker counts and cache hits —
//     the content-addressed result cache (internal/server) serves old bytes
//     as truth, so any wall-clock read, unseeded RNG or map-iteration-order
//     leak into output invalidates every golden figure (determinism,
//     maporder);
//   - probe emission sites must stay nil-guarded so unprobed runs keep the
//     exact fast path promised by BenchmarkNilProbe (probeguard);
//   - contexts must be threaded end-to-end or cancellation silently stops
//     working (ctxflow);
//   - mutex-protected state must be touched with the documented lock held
//     (locked);
//   - a gpu.Config is built only by the runspec materializer, so every run
//     description maps to one configuration (specsource);
//   - functions reachable from the simulation hot-path roots must not
//     allocate per event (hotalloc);
//   - the serving layers acquire mutexes in one global order and never
//     block while holding one (lockorder);
//   - every /v1 error leaves through the typed envelope with a code from
//     the closed vocabulary (envelope).
//
// Each contract is an Analyzer with one shape: Run receives a Pass over
// every loaded package, with the cross-package call graph built on first
// use and shared by all analyzers of one run. The driver (Run, used by
// cmd/hpelint) loads packages with go-list-based loading, runs every
// analyzer, and filters the diagnostics through //lint:ignore
// suppressions. Diagnostics carry file/line/column positions and are
// reported in a deterministic order, so the tool itself honors the
// invariant it enforces.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Analyzer is one named invariant check. Run inspects the loaded packages
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:ignore hpelint/<Name> reason` suppression directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis. An analyzer whose production footprint is
	// narrower than the whole program filters packages through
	// Pass.InScope.
	Run func(*Pass)
}

// Pass carries one analyzer's view of the loaded program: every
// type-checked package, plus the call graph shared by every analyzer of
// the same run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package

	scoped bool       // apply production footprints; off in the fixture harness
	graph  *CallGraph // built on first use by Graph
	diags  []Diagnostic
}

// Reportf records a diagnostic at pos under the running analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Graph returns the whole-program call graph, building it on first use —
// at most once per run however many analyzers consume it.
func (p *Pass) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p.Fset, p.Packages)
	}
	return p.graph
}

// InScope is the one package-scope rule: a package belongs to an
// analyzer's production footprint when its import path matches one of
// include (nil includes every package) and none of exclude, matched by
// pathHasSuffixAny. The fixture harness switches the rule off, so a
// testdata package exercises the check whatever its import path.
func (p *Pass) InScope(pkgPath string, include, exclude []string) bool {
	if !p.scoped {
		return true
	}
	return (include == nil || pathHasSuffixAny(pkgPath, include)) && !pathHasSuffixAny(pkgPath, exclude)
}

// Diagnostic is one finding: which analyzer, where, and what.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form used by the CLI.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (hpelint/%s)",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// analyze is the one driver path behind Run and the fixture harness: each
// analyzer runs once over prog, then //lint:ignore directives filter the
// combined findings (a directive suppresses by file, line and analyzer),
// file names are made relative to prog.Dir when it is set, and the result
// is sorted. scoped applies the analyzers' production footprints.
func analyze(prog *Program, analyzers []*Analyzer, scoped bool) []Diagnostic {
	pass := &Pass{Fset: prog.Fset, Packages: prog.Packages, scoped: scoped}
	known := map[string]bool{}
	for _, a := range analyzers {
		pass.Analyzer = a
		a.Run(pass)
		known[a.Name] = true
	}
	dirs, dirDiags := collectDirectives(prog, known)
	all := append(applyDirectives(pass.diags, dirs), dirDiags...)
	if prog.Dir != "" {
		for i := range all {
			if rel, err := filepath.Rel(prog.Dir, all[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) && rel != "" && !isParentEscape(rel) {
				all[i].Pos.Filename = rel
			}
		}
	}
	sortDiagnostics(all)
	return all
}

// isParentEscape reports whether a relative path climbs out of the root.
func isParentEscape(rel string) bool {
	return rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// sortDiagnostics orders findings by file, line, column, analyzer, message —
// a total order, so hpelint's own output is reproducible.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
