package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"hpe/internal/lint"
)

// TestListExitsClean pins -list as a zero-cost smoke of the CLI wiring.
func TestListExitsClean(t *testing.T) {
	if code := run([]string{"-list"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("hpelint -list exited %d, want 0", code)
	}
}

// TestUnknownAnalyzerIsUsageError pins exit code 2 for bad -only input.
func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	if code := run([]string{"-only", "bogus"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("hpelint -only bogus exited %d, want 2", code)
	}
}

// TestSelfCheckProbePackage runs the real driver over a burned-down
// package: exit 0, no findings.
func TestSelfCheckProbePackage(t *testing.T) {
	if code := run([]string{"../../internal/probe/"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("hpelint ../../internal/probe/ exited %d, want 0", code)
	}
}

// TestPkgsFlagScopesRun pins the -pkgs comma-separated form that
// scripts/precommit.sh uses for commit-scoped linting.
func TestPkgsFlagScopesRun(t *testing.T) {
	if code := run([]string{"-pkgs", "../../internal/probe/, ../../internal/promtext/"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("hpelint -pkgs exited %d, want 0", code)
	}
}

// TestPkgsFlagRejectsPositionalMix pins -pkgs + positional packages as a
// usage error rather than a silent union.
func TestPkgsFlagRejectsPositionalMix(t *testing.T) {
	if code := run([]string{"-pkgs", "../../internal/probe/", "../../internal/promtext/"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("hpelint -pkgs with positional args exited %d, want 2", code)
	}
	if code := run([]string{"-pkgs", " ,, "}, io.Discard, io.Discard); code != 2 {
		t.Errorf("hpelint -pkgs with empty list exited %d, want 2", code)
	}
}

// runJSON runs hpelint -json with args, requires a clean exit, and
// returns the report bytes.
func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout bytes.Buffer
	if code := run(append([]string{"-json"}, args...), &stdout, io.Discard); code != 0 {
		t.Fatalf("hpelint -json %v exited %d, want 0", args, code)
	}
	return stdout.Bytes()
}

// TestJSONSchema pins the -json schema (DESIGN.md §10.11) on a clean
// package: version 1, the analyzers in registry order, count equal to the
// number of diagnostics, and diagnostics an empty array rather than null.
func TestJSONSchema(t *testing.T) {
	out := runJSON(t, "../../internal/probe/")
	var rep jsonReport
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if err := json.Unmarshal(out, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Errorf("report has %d fields, want version, analyzers, count, diagnostics:\n%s", len(raw), out)
	}
	if rep.Version != 1 {
		t.Errorf("version = %d, want 1", rep.Version)
	}
	if !reflect.DeepEqual(rep.Analyzers, lint.AnalyzerNames()) {
		t.Errorf("analyzers = %v, want registry order %v", rep.Analyzers, lint.AnalyzerNames())
	}
	if rep.Count != len(rep.Diagnostics) {
		t.Errorf("count = %d, but %d diagnostics", rep.Count, len(rep.Diagnostics))
	}
	if got := string(raw["diagnostics"]); got != "[]" {
		t.Errorf("diagnostics = %s on a clean package, want []", got)
	}
}

// TestJSONOnlyRepeatRunsOnce pins -only deduplication: a repeated name
// runs its analyzer once, so the report lists it once.
func TestJSONOnlyRepeatRunsOnce(t *testing.T) {
	var rep jsonReport
	if err := json.Unmarshal(runJSON(t, "-only", "probeguard,probeguard", "../../internal/probe/"), &rep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Analyzers, []string{"probeguard"}) {
		t.Errorf("-only probeguard,probeguard: analyzers = %v, want [probeguard]", rep.Analyzers)
	}
}
