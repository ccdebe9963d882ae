// Command hpelint machine-checks the invariants this repository's serving
// and caching layers depend on: byte-reproducible simulation output,
// nil-guarded probe emission sites, end-to-end context threading,
// documented lock discipline, one run-description-to-config mapping,
// allocation-free simulator hot paths, deadlock-free lock acquisition
// order, and the closed /v1 error-envelope vocabulary. It is a
// hand-rolled, stdlib-only multichecker (go/ast + go/parser + go/types;
// go.mod keeps zero external requirements); the analyzers that walk the
// cross-package call graph (hotalloc, lockorder) share one graph per
// invocation (DESIGN.md §10).
//
// Usage:
//
//	hpelint [-json] [-only name,name] [-pkgs pat,pat] [-list] [packages...]
//
// With no packages, ./... is checked. -pkgs takes the same patterns as the
// positional form but comma-separated, so callers that compute a scoped
// package list (scripts/precommit.sh lints only the packages a commit
// touches) can pass it as one shell word. Exit codes are CI-friendly:
//
//	0  no findings
//	1  at least one diagnostic
//	2  usage, load or type-check failure
//
// Deliberate exceptions are annotated in source, one line above the
// finding, with a mandatory reason:
//
//	//lint:ignore hpelint/<analyzer> reason
//
// The -json schema is documented in DESIGN.md §10 (the daemon's repo-health
// endpoint consumes it): {"version":1,"analyzers":[...],"count":N,
// "diagnostics":[{"analyzer","file","line","col","message"}]}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hpe/internal/lint"
)

// jsonReport is the versioned -json output envelope.
type jsonReport struct {
	Version     int              `json:"version"`
	Analyzers   []string         `json:"analyzers"`
	Count       int              `json:"count"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

// jsonDiagnostic is one finding in -json output.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hpelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (schema in DESIGN.md §10)")
	only := fs.String("only", "", "comma-separated analyzer subset to run")
	pkgs := fs.String("pkgs", "", "comma-separated package patterns to check (alternative to positional packages)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, "hpelint:", err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if *pkgs != "" {
		if len(patterns) > 0 {
			fmt.Fprintln(stderr, "hpelint: -pkgs and positional packages are mutually exclusive")
			return 2
		}
		for _, p := range strings.Split(*pkgs, ",") {
			if p = strings.TrimSpace(p); p != "" {
				patterns = append(patterns, p)
			}
		}
		if len(patterns) == 0 {
			fmt.Fprintln(stderr, "hpelint: -pkgs given but empty after splitting")
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "hpelint:", err)
		return 2
	}
	diags, err := lint.Run(wd, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "hpelint:", err)
		return 2
	}

	if *jsonOut {
		rep := jsonReport{
			Version:     1,
			Analyzers:   names(analyzers),
			Count:       len(diags),
			Diagnostics: []jsonDiagnostic{},
		}
		for _, d := range diags {
			rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "hpelint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// names projects the analyzer list to its name column.
func names(as []*lint.Analyzer) []string {
	out := make([]string, 0, len(as))
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}
