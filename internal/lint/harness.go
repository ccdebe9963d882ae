package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// This file is the analysistest-style harness: fixture packages live under
// testdata/src/<name>/, annotate expected findings with
//
//	code under test // want "regexp" "another regexp"
//
// and runFixture asserts an exact bidirectional match — every produced
// diagnostic must be wanted on its line, every want must be matched.
// Fixture packages are type-checked from source by the production
// type-check step (typeCheck); they import stdlib from the export data one
// `go list std` resolves and sibling fixture packages from source, so
// analyzers see real types.Info, not mocks.

// errorfer is the slice of testing.T the harness needs; taking the
// interface keeps harness.go in the main build without importing testing.
type errorfer interface {
	Errorf(format string, args ...any)
}

var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
	stdExportsErr  error
)

// stdlibExports resolves export data for the stdlib closure the fixtures
// need, once per process. Resolving "std" wholesale costs one `go list`
// over packages that are all prebuilt or cheaply built in the cache.
func stdlibExports(repoRoot string) (map[string]string, error) {
	stdExportsOnce.Do(func() {
		_, stdExports, stdExportsErr = goListExport(repoRoot, []string{"std"})
	})
	return stdExports, stdExportsErr
}

// fixtureLoader type-checks fixture packages rooted at srcRoot, resolving
// fixture-local imports from source and everything else from export data.
type fixtureLoader struct {
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	cache   map[string]*Package
}

// Import implements types.Importer for dependency resolution during
// fixture type-checking.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.srcRoot, filepath.FromSlash(path)); dirExists(dir) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// load type-checks the fixture package at srcRoot/<path>.
func (l *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	files, err := filepath.Glob(filepath.Join(l.srcRoot, filepath.FromSlash(path), "*.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s has no Go files", path)
	}
	pkg, err := typeCheck(l.fset, path, files, l)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// loadFixture type-checks testdata/src/<name> with a fresh file set and
// loader, so two loads of the same fixture are fully independent.
func loadFixture(name string) (*Program, error) {
	repoRoot, err := repoRootDir()
	if err != nil {
		return nil, fmt.Errorf("locating repo root: %v", err)
	}
	std, err := stdlibExports(repoRoot)
	if err != nil {
		return nil, fmt.Errorf("resolving stdlib export data: %v", err)
	}
	fset := token.NewFileSet()
	loader := &fixtureLoader{
		fset:    fset,
		srcRoot: filepath.Join(repoRoot, "internal", "lint", "testdata", "src"),
		std:     exportImporter(fset, std),
		cache:   map[string]*Package{},
	}
	pkg, err := loader.load(name)
	if err != nil {
		return nil, fmt.Errorf("loading fixture %s: %v", name, err)
	}
	return &Program{Fset: fset, Packages: []*Package{pkg}}, nil
}

// runFixture loads testdata/src/<fixture>, runs the analyzers through the
// production driver path with package scoping switched off (fixtures
// exercise the check, not its production footprint), asserts the
// diagnostics against the fixture's want annotations, and returns them for
// tests that assert beyond want-matching.
func runFixture(t errorfer, fixture string, analyzers ...*Analyzer) []Diagnostic {
	prog, err := loadFixture(fixture)
	if err != nil {
		t.Errorf("%v", err)
		return nil
	}
	diags := analyze(prog, analyzers, false)
	checkWants(t, diags, collectWants(t, prog.Fset, prog.Packages[0].Files))
	return diags
}

// want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

// collectWants parses `// want "re" "re"` annotations from fixture
// comments. The annotation may trail other comment content (so a
// //lint:ignore directive can itself carry a want for the unused-directive
// diagnostic).
func collectWants(t errorfer, fset *token.FileSet, files []*ast.File) []*want {
	var out []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatchIndex(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitQuoted(c.Text[m[2]:m[3]]) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: malformed want pattern %s: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: want pattern %s: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, re: re, raw: lit})
				}
			}
		}
	}
	return out
}

// splitQuoted extracts the double-quoted or backquoted string literals from
// the tail of a want annotation.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
				}
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
				i = j
			}
		case '`':
			j := i + 1
			for j < len(s) && s[j] != '`' {
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
				i = j
			}
		}
	}
	return out
}

// checkWants asserts the exact bidirectional match between produced
// diagnostics and want annotations.
func checkWants(t errorfer, diags []Diagnostic, wants []*want) {
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s:%d: %s (hpelint/%s)",
				d.Pos.Filename, d.Pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// repoRootDir walks up from the working directory to the go.mod root, so
// the harness runs both from `go test ./internal/lint/` and from the
// package directory.
func repoRootDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// countByAnalyzer tallies diagnostics per analyzer name, used by tests that
// assert fixture coverage floors.
func countByAnalyzer(diags []Diagnostic) map[string]int {
	out := map[string]int{}
	for _, d := range diags {
		out[d.Analyzer]++
	}
	return out
}

// sortedKeys returns the map's keys in order (test helper).
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
