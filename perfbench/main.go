// Command perfbench is the repository's benchmark. It runs one of four
// workloads (sweep, sim, serve, cluster), checks every output against
// results.json and the committed expected-output fixture, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct","attempted","failed","metrics"}.
//
//	perfbench --workload sim --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the traced run,
// which records a span around every layer call and prints the per-layer
// metrics. See README.md in this directory. Run it from the repository
// root (run.py builds and launches it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart approximates process start: package variables initialise
// before main runs.
var processStart = time.Now()

var workloads = []string{"sweep", "sim", "serve", "cluster"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result written next to the build: the outcome plus
// what it measured and where.
type record struct {
	Identity identity          `json:"identity"`
	Env      map[string]string `json:"env"`
	Outcome  outcome           `json:"outcome"`
	Details  []string          `json:"details"`
}

// report accumulates the metrics and the human-readable lines.
type report struct {
	out     outcome
	details []string
}

func (r *report) set(name string, v float64, unit, detail string) {
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-36s %14.6g %-6s", name, v, unit)
	if detail != "" {
		line += "  " + detail
	}
	r.details = append(r.details, line)
}

func (r *report) note(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// tally adds a pass's attempted/failed counts and its first failures.
func (r *report) tally(p passResult) {
	r.out.Attempted += p.attempted
	r.out.Failed += p.failed
	for i, n := range p.notes {
		if i == 20 {
			r.note("MISMATCH ... %d more", len(p.notes)-i)
			break
		}
		r.note("MISMATCH %s", n)
	}
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "sweep, sim, serve or cluster")
	seed := flag.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 20, "measurement budget per run")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the result record and the trace")
	regen := flag.String("regen-fixture", "", "recompute the expected-output fixture into this file and exit")
	compare := flag.Bool("compare", false, "compare the two result records named as arguments and exit")
	flag.Parse()

	switch {
	case *regen != "":
		if err := regenFixture(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two result records")
			return 2
		}
		if err := compareRecords(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workloadName
	}
	if !known || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --trace 0|1 and --seconds > 0\n", workloads)
		return 2
	}
	traced := *traceMode == 1

	// Set-up runs setupReps times; the first is timed from process start.
	var in *inputs
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := processStart
		if k > 0 {
			runtime.GC() // garbage of the previous set-up is not this one's cost
			t0 = time.Now()
		}
		var err error
		if in, err = setup(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 2
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rep := &report{out: outcome{Metrics: map[string]metric{}}}
	var err error
	var tr *tracer
	if traced {
		tr, err = tracedRun(rep, in, *workloadName)
	} else {
		err = untracedRun(rep, in, *workloadName, *seconds, setups)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	calib := referenceNsPerEvent(calibIters)
	if traced {
		rep.set("calib.reference_engine_ns", calib, "ns", "reference engine, per event of the 1000-event shape")
	}
	rep.out.Correct = rep.out.Failed == 0
	if err := checkDeclared(rep.out.Metrics, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	id := newIdentity(*workloadName, traced, *seed, clients(), in.matrix, in.stream)
	env := map[string]string{
		"gomaxprocs":                fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":                     fmt.Sprint(runtime.NumCPU()),
		"go":                        runtime.Version(),
		"calib.reference_engine_ns": fmt.Sprintf("%.3f", calib),
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%d\n", *workloadName, *seed, *traceMode)
	fmt.Printf("work: %d experiments, %d sim specs (sha %s), %d requests (sha %s), %d clients\n",
		len(id.Experiments), id.SimSpecs, id.SimSpecsSHA, id.Requests, id.StreamSHA, id.Clients)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env: %s=%s\n", k, env[k])
	}
	for _, line := range rep.details {
		fmt.Println(line)
	}
	fmt.Printf("error_ratio %.6f (%d failed of %d attempted)\n",
		float64(rep.out.Failed)/float64(max(rep.out.Attempted, 1)), rep.out.Failed, rep.out.Attempted)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	stem := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *workloadName, *seed, *traceMode))
	if tr != nil {
		if err := tr.writeChrome(stem + ".trace.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 2
		}
		fmt.Printf("trace: %s.trace.json (%d spans)\n", stem, len(tr.spans))
	}
	if err := writeJSON(stem+".json", record{Identity: id, Env: env, Outcome: rep.out, Details: rep.details}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("record: %s.json\n", stem)

	line, err := json.Marshal(rep.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rep.out.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareRecords prints the metric-by-metric ratio of two result records,
// refusing when they measured different work.
func compareRecords(pathA, pathB string) error {
	var a, b record
	for _, p := range []struct {
		path string
		rec  *record
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, p.rec); err != nil {
			return fmt.Errorf("%s: %w", p.path, err)
		}
	}
	ja, _ := json.Marshal(a.Identity)
	jb, _ := json.Marshal(b.Identity)
	if string(ja) != string(jb) {
		return fmt.Errorf("refusing to compare: the records measured different work\n  %s\n  %s", ja, jb)
	}
	names := make([]string, 0, len(a.Outcome.Metrics))
	for n := range a.Outcome.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, n := range names {
		ma, mb := a.Outcome.Metrics[n], b.Outcome.Metrics[n]
		ratio := "-"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.4f", mb.Value/ma.Value)
		}
		fmt.Printf("%-36s %14.6g %14.6g %8s %s\n", n, ma.Value, mb.Value, ratio, ma.Unit)
	}
	fmt.Printf("calibration (reference engine ns/event): a %s, b %s\n",
		a.Env["calib.reference_engine_ns"], b.Env["calib.reference_engine_ns"])
	return nil
}

// checkDeclared holds the run to its contract: it must emit exactly the
// metrics, with the units, that BENCHMARK.json declares for the mode.
func checkDeclared(got map[string]metric, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	want := doc.EndToEnd
	if traced {
		want = doc.PerLayer
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	return nil
}
