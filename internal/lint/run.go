package lint

import (
	"fmt"
	"strings"
)

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCtxFlow,
		AnalyzerDeterminism,
		AnalyzerEnvelope,
		AnalyzerHotAlloc,
		AnalyzerLocked,
		AnalyzerLockOrder,
		AnalyzerMapOrder,
		AnalyzerProbeGuard,
		AnalyzerSpecSource,
	}
}

// ByName resolves an analyzer selection against All. Names are trimmed of
// surrounding space and a repeated name selects its analyzer once, at its
// first position, so no analyzer runs (or reports) twice.
func ByName(names []string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	seen := map[string]bool{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %v)", n, AnalyzerNames())
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, a)
		}
	}
	return out, nil
}

// AnalyzerNames lists the suite's analyzer names in stable order.
func AnalyzerNames() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name)
	}
	return out
}

// Run is the multichecker driver: load the packages matched by patterns
// (relative to dir), run every analyzer over them, filter through
// //lint:ignore directives, and return the findings in deterministic order
// with file names relative to dir. A package that fails to type-check is
// an error — analysis over broken type information produces unreliable
// findings.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return analyze(prog, analyzers, true), nil
}
