package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// repoRoot is where the committed BENCH_<n>.json trajectory files live.
const repoRoot = "../.."

// loadBenchReport parses one trajectory file.
func loadBenchReport(t *testing.T, path string) benchReport {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	var r benchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return r
}

// TestCommittedBenchFilesAreSchemaValid re-validates every committed
// BENCH_<n>.json: schema id, required benchmark keys, finite values, serial
// sweep, and numbering that is exactly 1..k with each file's n matching its
// name. A hand-edited or truncated trajectory file fails `go test` here.
func TestCommittedBenchFilesAreSchemaValid(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_<n>.json committed at the repo root; run `make bench-json`")
	}
	var ns []int
	for _, path := range paths {
		n, err := benchNumber(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		r := loadBenchReport(t, path)
		if err := validateBenchReport(r); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if r.N != n {
			t.Errorf("%s: n field = %d, filename says %d", path, r.N, n)
		}
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for i, n := range ns {
		if n != i+1 {
			t.Fatalf("trajectory numbering not monotonic from 1: got %v", ns)
		}
	}
}

// TestBenchOnePinsPRSpeedups pins this PR's acceptance numbers into the
// committed BENCH_1.json: the engine microbenchmark at ≥ 2x and the serial
// full sweep at ≥ 30% faster (≥ 1/0.7 x) than the pre-PR baseline recorded
// in the same file.
func TestBenchOnePinsPRSpeedups(t *testing.T) {
	r := loadBenchReport(t, filepath.Join(repoRoot, "BENCH_1.json"))
	if got := r.Speedup["engine"]; got < 2 {
		t.Errorf("speedup.engine = %.2f, want >= 2 (vs in-run reference engine)", got)
	}
	if got := r.Speedup["full_sweep"]; got < 1/0.7 {
		t.Errorf("speedup.full_sweep = %.2f, want >= %.2f (>= 30%% faster)", got, 1/0.7)
	}
	if r.FullSweep.Quick {
		t.Error("BENCH_1.json recorded a -quick sweep; trajectory files must use the full sweep")
	}
}

// validReport builds a minimal report that passes validation, for the
// rejection tests to corrupt.
func validReport() benchReport {
	bench := benchResult{NsPerOp: 100, AllocsPerOp: 1, BytesPerOp: 8}
	return benchReport{
		Schema: benchSchema,
		N:      1,
		Iters:  1,
		Benchmarks: map[string]benchResult{
			"engine_handler":   bench,
			"engine_cascade":   bench,
			"reference_engine": bench,
		},
		FullSweep: fullSweep{Seconds: 1, Workers: 1, Experiments: 23},
		PrePR:     prePRBaseline,
		Speedup:   map[string]float64{"engine": 2},
	}
}

// TestValidateBenchReportRejections drives every schema rule: NaN and Inf
// values, missing benchmark keys, bad numbering, and parallel sweeps must
// all be refused before a file is written.
func TestValidateBenchReportRejections(t *testing.T) {
	if err := validateBenchReport(validReport()); err != nil {
		t.Fatalf("baseline report invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*benchReport)
	}{
		{"wrong schema", func(r *benchReport) { r.Schema = "hpe-bench/v0" }},
		{"zero n", func(r *benchReport) { r.N = 0 }},
		{"zero iters", func(r *benchReport) { r.Iters = 0 }},
		{"missing benchmark", func(r *benchReport) { delete(r.Benchmarks, "engine_handler") }},
		{"NaN ns_per_op", func(r *benchReport) {
			r.Benchmarks["engine_handler"] = benchResult{NsPerOp: math.NaN()}
		}},
		{"Inf bytes_per_op", func(r *benchReport) {
			r.Benchmarks["engine_cascade"] = benchResult{NsPerOp: 1, BytesPerOp: math.Inf(1)}
		}},
		{"zero ns_per_op", func(r *benchReport) {
			r.Benchmarks["reference_engine"] = benchResult{NsPerOp: 0}
		}},
		{"zero sweep seconds", func(r *benchReport) { r.FullSweep.Seconds = 0 }},
		{"NaN sweep seconds", func(r *benchReport) { r.FullSweep.Seconds = math.NaN() }},
		{"parallel sweep", func(r *benchReport) { r.FullSweep.Workers = 8 }},
		{"missing engine speedup", func(r *benchReport) { delete(r.Speedup, "engine") }},
		{"Inf speedup", func(r *benchReport) { r.Speedup["full_sweep"] = math.Inf(1) }},
		{"negative speedup", func(r *benchReport) { r.Speedup["engine"] = -1 }},
	}
	for _, c := range cases {
		r := validReport()
		c.mutate(&r)
		if err := validateBenchReport(r); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

// TestBenchNumber pins the BENCH_<n>.json filename contract.
func TestBenchNumber(t *testing.T) {
	if n, err := benchNumber("/some/dir/BENCH_12.json"); err != nil || n != 12 {
		t.Fatalf("benchNumber = %d, %v", n, err)
	}
	for _, bad := range []string{"BENCH_.json", "bench_1.json", "BENCH_1.txt", "RESULTS.json"} {
		if _, err := benchNumber(bad); err == nil {
			t.Errorf("benchNumber(%q) accepted, want error", bad)
		}
	}
}
