package main

// Performance-trajectory harness (-bench-json): every optimisation PR runs
// `make bench-json`, which appends a numbered BENCH_<n>.json at the repo
// root. Each file records the engine microbenchmarks (the same schedule
// shapes as internal/sim's Benchmark* functions), the retained container/heap
// Reference engine as an in-run baseline, and the wall-clock of a full
// serial experiment sweep — so the repo's perf history is a series of
// schema-stable, diffable artifacts rather than numbers in commit messages.
// The file is validated against the schema before it is written; `make
// check` runs a 1-iteration smoke of this mode, and cmd/hpebench's tests
// re-validate the committed BENCH_<n>.json files.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"hpe/internal/experiments"
	"hpe/internal/sim"
)

// benchSchema identifies the report format; bump on breaking changes.
const benchSchema = "hpe-bench/v1"

// prePRBaseline is the pre-rewrite performance recorded before the engine /
// TLB hot-path work, measured on the development host (Xeon @ 2.10 GHz,
// go1.x, serial): the old *Event container/heap engine's schedule-1000-drain
// microbenchmark and the full 23-app serial sweep. Cross-host comparisons
// should prefer the in-run reference_engine baseline, which reruns the old
// engine on the same machine as the optimized one.
var prePRBaseline = prePR{
	EngineNsPerOp:    222069,
	FullSweepSeconds: 25.26,
	HostNote:         "Intel Xeon @ 2.10GHz, serial, pre hot-path rewrite (PR 6)",
}

type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

type fullSweep struct {
	Seconds     float64 `json:"seconds"`
	Workers     int     `json:"workers"`
	Experiments int     `json:"experiments"`
	Quick       bool    `json:"quick"`
}

type prePR struct {
	EngineNsPerOp    float64 `json:"engine_ns_per_op"`
	FullSweepSeconds float64 `json:"full_sweep_seconds"`
	HostNote         string  `json:"host_note"`
}

type benchReport struct {
	Schema     string                 `json:"schema"`
	N          int                    `json:"n"`
	Iters      int                    `json:"iters"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
	FullSweep  fullSweep              `json:"full_sweep"`
	PrePR      prePR                  `json:"pre_pr"`
	// Speedup holds derived ratios (>1 = faster than the baseline):
	//   engine            — reference_engine vs engine_handler, same run/host
	//   engine_vs_pre_pr  — recorded pre-PR engine ns/op vs engine_handler
	//   full_sweep        — recorded pre-PR sweep vs this run (full runs only)
	Speedup map[string]float64 `json:"speedup"`
}

// requiredBenchmarks are the keys every report must carry.
var requiredBenchmarks = []string{
	"engine_handler", "engine_cascade", "reference_engine",
}

var benchFileRe = regexp.MustCompile(`^BENCH_([0-9]+)\.json$`)

// benchNumber extracts n from a BENCH_<n>.json path.
func benchNumber(path string) (int, error) {
	m := benchFileRe.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return 0, fmt.Errorf("bench output must be named BENCH_<n>.json, got %q", filepath.Base(path))
	}
	return strconv.Atoi(m[1])
}

// validateBenchReport enforces the schema: all required keys present, every
// number finite, n positive. The emitter refuses to write a violating
// report, and the package tests re-validate the committed files.
func validateBenchReport(r benchReport) error {
	if r.Schema != benchSchema {
		return fmt.Errorf("schema = %q, want %q", r.Schema, benchSchema)
	}
	if r.N <= 0 {
		return fmt.Errorf("n = %d, want >= 1", r.N)
	}
	if r.Iters <= 0 {
		return fmt.Errorf("iters = %d, want >= 1", r.Iters)
	}
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %v, want finite", name, v)
		}
		return nil
	}
	for _, name := range requiredBenchmarks {
		b, ok := r.Benchmarks[name]
		if !ok {
			return fmt.Errorf("missing benchmark %q", name)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %s: ns_per_op = %v, want > 0", name, b.NsPerOp)
		}
		for _, f := range []struct {
			k string
			v float64
		}{{"ns_per_op", b.NsPerOp}, {"allocs_per_op", b.AllocsPerOp}, {"bytes_per_op", b.BytesPerOp}} {
			if err := finite(name+"."+f.k, f.v); err != nil {
				return err
			}
		}
	}
	if r.FullSweep.Seconds <= 0 {
		return fmt.Errorf("full_sweep.seconds = %v, want > 0", r.FullSweep.Seconds)
	}
	if err := finite("full_sweep.seconds", r.FullSweep.Seconds); err != nil {
		return err
	}
	if r.FullSweep.Workers != 1 {
		return fmt.Errorf("full_sweep.workers = %d, want 1 (trajectory numbers are serial)", r.FullSweep.Workers)
	}
	if _, ok := r.Speedup["engine"]; !ok {
		return fmt.Errorf("missing speedup.engine")
	}
	for k, v := range r.Speedup {
		if err := finite("speedup."+k, v); err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("speedup.%s = %v, want > 0", k, v)
		}
	}
	return nil
}

// benchLoop times iters repetitions of inner, reporting per-repetition
// nanoseconds and allocation deltas. Alloc counters are process-global, so
// bench mode runs strictly serially.
func benchLoop(iters int, inner func()) benchResult {
	inner() // warm up: grow engine arrays once so steady state is measured
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		inner()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return benchResult{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
}

// The microbenchmark shapes mirror internal/sim/bench_test.go: 1000 events
// across 97 distinct cycles, scheduled up front and drained, so `go test
// -bench` numbers and BENCH_<n>.json entries are directly comparable.

type benchNoop struct{ n int }

func (h *benchNoop) OnEvent(a0, a1 uint64) { h.n++ }

func benchEngineHandler(iters int) benchResult {
	h := &benchNoop{}
	return benchLoop(iters, func() {
		e := sim.NewEngine()
		hid := e.Register(h)
		for j := 0; j < 1000; j++ {
			e.Schedule(sim.Cycle(j%97), hid, uint64(j), 0)
		}
		e.Run()
	})
}

type benchCascade struct {
	e         *sim.Engine
	id        sim.HandlerID
	remaining int
}

func (h *benchCascade) OnEvent(a0, a1 uint64) {
	h.remaining--
	if h.remaining > 0 {
		h.e.ScheduleAfter(3, h.id, 0, 0)
	}
}

func benchEngineCascade(iters int) benchResult {
	return benchLoop(iters, func() {
		e := sim.NewEngine()
		h := &benchCascade{e: e, remaining: 1000}
		h.id = e.Register(h)
		e.Schedule(0, h.id, 0, 0)
		e.Run()
	})
}

func benchReference(iters int) benchResult {
	return benchLoop(iters, func() {
		e := sim.NewReference()
		for j := 0; j < 1000; j++ {
			e.At(sim.Cycle(j%97), func() {})
		}
		e.Run()
	})
}

// runBenchJSON executes the trajectory harness and writes path, which must
// be named BENCH_<n>.json. quick reduces the sweep to the 10-app subset
// (used by the `make check` smoke; committed trajectory files use the full
// sweep).
func runBenchJSON(path string, iters int, quick bool) error {
	n, err := benchNumber(path)
	if err != nil {
		return err
	}
	report := benchReport{
		Schema: benchSchema,
		N:      n,
		Iters:  iters,
		Benchmarks: map[string]benchResult{
			"engine_handler":   benchEngineHandler(iters),
			"engine_cascade":   benchEngineCascade(iters),
			"reference_engine": benchReference(iters),
		},
		PrePR:   prePRBaseline,
		Speedup: map[string]float64{},
	}

	// Full-sweep wall-clock, strictly serial so trajectory numbers are
	// comparable across machines with different core counts.
	suite := experiments.NewSuite(experiments.Options{Quick: quick, Seed: 1, Workers: 1})
	ids := experiments.IDs()
	start := time.Now()
	if _, err := suite.Reports(ids); err != nil {
		return fmt.Errorf("bench sweep: %w", err)
	}
	report.FullSweep = fullSweep{
		Seconds:     time.Since(start).Seconds(),
		Workers:     1,
		Experiments: len(ids),
		Quick:       quick,
	}

	handler := report.Benchmarks["engine_handler"].NsPerOp
	report.Speedup["engine"] = report.Benchmarks["reference_engine"].NsPerOp / handler
	report.Speedup["engine_vs_pre_pr"] = report.PrePR.EngineNsPerOp / handler
	if !quick {
		report.Speedup["full_sweep"] = report.PrePR.FullSweepSeconds / report.FullSweep.Seconds
	}

	if err := validateBenchReport(report); err != nil {
		return fmt.Errorf("refusing to write %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
