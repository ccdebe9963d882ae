// Command hpebench regenerates the paper's evaluation: every table and
// figure of Section V, over the 23 synthetic Table II workloads.
//
// Usage:
//
//	hpebench                  # run everything, one worker per core
//	hpebench -only fig10      # one experiment (comma-separate for several)
//	hpebench -quick           # 10-app subset
//	hpebench -workers 1       # serial run (debugging; output is identical)
//	hpebench -v               # per-simulation progress lines
//	hpebench -list            # list experiment IDs
//	hpebench -policies        # list registered eviction policies
//	hpebench -trace DIR       # stream a Chrome trace per simulation into DIR
//	hpebench -metrics         # per-simulation event histograms on stderr
//	hpebench -json -          # report metrics as JSON on stdout
//
// The run matrix is sharded across -workers goroutines (default: GOMAXPROCS).
// Every simulation is deterministic and results are aggregated in canonical
// order, so the reports are byte-identical at any worker count — with or
// without probes attached (probes observe, they never steer). -trace and
// -metrics hand the suite a Runner that simulates each cell in process with
// its probes and flushes them when the run ends; a failed flush, such as a
// trace write on a full disk, is reported on stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	"hpe/internal/probe"
	"hpe/internal/runspec"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced application subset")
	verbose := flag.Bool("v", false, "print per-simulation progress")
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	listPolicies := flag.Bool("policies", false, "list registered eviction policies and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers (1 = serial)")
	jsonOut := flag.String("json", "", "also write report metrics as JSON to this file (\"-\" = stdout)")
	traceDir := flag.String("trace", "", "write a Chrome trace_event JSON file per simulation into this directory")
	metrics := flag.Bool("metrics", false, "print per-simulation event histograms to stderr")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *listPolicies {
		for _, info := range hpe.Policies() {
			needs := ""
			if info.NeedsCapacity {
				needs += " [needs capacity]"
			}
			if info.NeedsTrace {
				needs += " [needs trace]"
			}
			if info.NeedsHIR {
				needs += " [uses HIR]"
			}
			fmt.Printf("%-10s %-10s %s%s\n", info.Name, info.Display, info.Description, needs)
		}
		return
	}

	// Ctrl-C stops the sweep at the next cancellation poll instead of
	// leaving workers churning; a second Ctrl-C kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // restore default handling: a second Ctrl-C kills outright
	}()

	// The suite runs anything below one worker serially; clamp here too so
	// the completion line reports the count that actually ran.
	if *workers < 1 {
		*workers = 1
	}
	opts := experiments.Options{Quick: *quick, Seed: 1, Workers: *workers, Context: ctx}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	opts.Runner = probedRunner(buildProbeFactory(*traceDir, *metrics), os.Stderr)
	suite := experiments.NewSuite(opts)

	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
		}
	}
	start := time.Now()
	reports, err := suite.Reports(ids)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "hpebench: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (use -list)\n", err)
		os.Exit(2)
	}
	// With -json - the JSON document owns stdout; the rendered reports move
	// to stderr so the output stays pipeable.
	text := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		text = os.Stderr
	}
	for _, rep := range reports {
		fmt.Fprintln(text, rep.String())
	}
	fmt.Fprintf(text, "completed %d experiment(s) in %v (%d workers)\n",
		len(ids), time.Since(start).Round(time.Millisecond), *workers)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, reports); err != nil {
			fmt.Fprintf(os.Stderr, "hpebench: write json: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut != "-" {
			fmt.Printf("wrote %s\n", *jsonOut)
		}
	}
}

// buildProbeFactory assembles the per-run probe factory for -trace/-metrics;
// it returns nil (no instrumentation, exact fast path) when both are off.
// Each run is labelled by its spec's canonical slug, so trace files are
// named consistently with every other layer's run identity.
func buildProbeFactory(traceDir string, metrics bool) func(runspec.Spec) probe.Probe {
	if traceDir == "" && !metrics {
		return nil
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hpebench: -trace: %v\n", err)
			os.Exit(1)
		}
	}
	var mu sync.Mutex // serialises -metrics stderr blocks across workers
	return func(sp runspec.Spec) probe.Probe {
		label := sp.Slug()
		var probes []probe.Probe
		if traceDir != "" {
			path := filepath.Join(traceDir, label+".trace.json")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hpebench: -trace %s: %v\n", path, err)
			} else {
				probes = append(probes, probe.NewChromeTrace(f,
					probe.ChromeTraceConfig{Process: label, CloseOnFlush: true}))
			}
		}
		if metrics {
			probes = append(probes, &metricsReporter{
				Metrics: probe.NewMetrics(), label: label, mu: &mu, w: os.Stderr})
		}
		return probe.Multi(probes...)
	}
}

// probedRunner is the suite Runner behind -trace/-metrics; with a nil
// newProbe it is nil, and the suite runs its own unprobed cells. Every cell
// runs in process over one shared trace cache with the probe newProbe
// builds for it, and that probe is flushed once when the run ends. A flush
// error, such as a trace that failed to write, goes to errw with or
// without -v.
func probedRunner(newProbe func(runspec.Spec) probe.Probe, errw io.Writer) func(context.Context, runspec.Spec, string) (gpu.Result, error) {
	if newProbe == nil {
		return nil
	}
	var cache runspec.Cache
	env := runspec.Env{Trace: cache.Trace, Future: cache.Future}
	return func(ctx context.Context, sp runspec.Spec, _ string) (gpu.Result, error) {
		pr := newProbe(sp)
		r, err := sp.Run(ctx, env, pr)
		if pr != nil {
			if err := pr.Flush(); err != nil {
				fmt.Fprintf(errw, "hpebench: flush %s: %v\n", sp.Slug(), err)
			}
		}
		return r, err
	}
}

// metricsReporter prints the metrics snapshot when the run completes. Under
// -workers > 1 blocks arrive in completion order (like -v progress lines),
// serialised by mu.
type metricsReporter struct {
	*probe.Metrics
	label string
	mu    *sync.Mutex
	w     io.Writer
}

func (m *metricsReporter) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := fmt.Fprintf(m.w, "metrics %s: %s\n", m.label, m.Snapshot())
	return err
}

// jsonReport is the machine-readable form of a report (text omitted).
type jsonReport struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
	// Clamped records the metrics whose values JSON cannot carry: ±Inf
	// (clamped to ±MaxFloat64 in Metrics) and NaN (dropped from Metrics).
	Clamped map[string]string `json:"clamped,omitempty"`
}

// encodeReports converts reports to their JSON form; Report.JSONMetrics
// clamps the values JSON cannot carry.
func encodeReports(reports []experiments.Report) []jsonReport {
	out := make([]jsonReport, len(reports))
	for i, r := range reports {
		metrics, clamped := r.JSONMetrics()
		out[i] = jsonReport{ID: r.ID, Title: r.Title, Metrics: metrics, Clamped: clamped}
	}
	return out
}

// writeJSON writes the reports' metrics to path ("-" = stdout).
func writeJSON(path string, reports []experiments.Report) error {
	out := encodeReports(reports)
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
