package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed and type-checked target package.
type Package struct {
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Program is the result of loading a pattern set: a shared FileSet plus the
// matched packages in go-list order.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// Dir is the directory the patterns were resolved against; findings
	// are reported relative to it. The fixture harness leaves it empty and
	// keeps absolute file names.
	Dir string
}

// listPackage mirrors the subset of `go list -json` fields the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	DepOnly    bool
	Export     string
	Error      *struct{ Err string }
}

// goListExport shells out to `go list -deps -export -json` for patterns,
// returning the matched target packages and an import-path → export-data
// map covering every transitive dependency. This is the go/packages
// equivalent the module can afford without a dependency: go list applies
// build constraints and produces compiler export data in the build cache;
// go/types then checks only the target sources, importing dependencies from
// that export data.
func goListExport(dir string, patterns []string) ([]*listPackage, map[string]string, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,DepOnly,Export,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// CGO_ENABLED=0 keeps the dependency closure pure Go so every package
	// has loadable export data.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	return targets, exports, nil
}

// exportImporter builds a types.Importer that reads gc export data through
// the path → file map produced by goListExport.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck parses files (absolute paths) as the package importPath and
// type-checks them against imp. It is the one type-check step of both
// loaders: Load imports dependencies from gc export data, the fixture
// harness imports sibling fixtures from source. A package that does not
// type-check is an error — analysis over broken type information produces
// unreliable findings.
func typeCheck(fset *token.FileSet, importPath string, files []string, imp types.Importer) (*Package, error) {
	pkg := &Package{
		ImportPath: importPath,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg.Types, _ = conf.Check(importPath, fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s does not type-check: %v", importPath, typeErrs[0])
	}
	return pkg, nil
}

// Load resolves patterns (e.g. "./...") relative to dir, parses each matched
// package's non-test sources, and type-checks them against export data.
// Test files are deliberately excluded: the contracts under check are
// production-code invariants, and external test packages would need their
// own export closure.
func Load(dir string, patterns []string) (*Program, error) {
	targets, exports, err := goListExport(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	prog := &Program{Fset: fset, Dir: dir}
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, g := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, g)
		}
		pkg, err := typeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}
