// Benchmarks regenerating every table and figure of the paper's evaluation.
// BenchmarkExperiments has one sub-benchmark per artefact, in paper order;
// each renders the experiment over the reduced (quick) application subset so
// a full `go test -bench=.` sweep stays tractable, and reports the
// experiment's headline metrics alongside ns/op. Run the full-catalog
// versions with `cmd/hpebench`.
//
// Additional ablation benches at the bottom quantify the design choices
// DESIGN.md calls out: HIR batching vs an ideal hit feed, dynamic adjustment
// on/off, page-set division on/off, and the extra baselines (FIFO, LFU).
package hpe_test

import (
	"runtime"
	"testing"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	hpecore "hpe/internal/hpe"
	"hpe/internal/runspec"
)

// --- Concurrent suite runner ---------------------------------------------------

// figureIDs is the benchmark workload for the suite runner: the three
// headline figures, which together exercise the full comparison-policy grid.
var figureIDs = []string{"fig10", "fig11", "fig12"}

// BenchmarkSuiteReportsSerial and BenchmarkSuiteReportsParallel measure the
// wall-clock effect of sharding the run matrix across workers. The reports
// are byte-identical (TestParallelMatchesSerial); only time differs, and
// only when GOMAXPROCS > 1.
func BenchmarkSuiteReportsSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{Quick: true, Seed: 1, Workers: 1})
		if _, err := s.Reports(figureIDs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteReportsParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{Quick: true, Seed: 1, Workers: runtime.GOMAXPROCS(0)})
		if _, err := s.Reports(figureIDs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteFullSerial runs the whole suite (every experiment ID, full
// catalog) on one worker: the serial sweep a researcher waits on, and the
// run `make profile` CPU-profiles to attribute time to layers.
func BenchmarkSuiteFullSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Options{Seed: 1, Workers: 1})
		if _, err := s.Reports(experiments.IDs()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCatalog runs hpe.Run with the zero RunEnv on every catalog app
// at scales 1 and 4 under LRU at 75%: nothing is shared between runs, so each
// one generates, materializes and simulates its own trace. It is the run
// `make profile-run` profiles; the suite `make profile` profiles memoizes
// traces and so never shows generation.
func BenchmarkRunCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range hpe.Workloads() {
			for _, scale := range []int{1, 4} {
				if _, err := hpe.Run(hpe.RunSpec{App: app.Abbr, Policy: "lru", Rate: 75, Scale: scale}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func reportMetric(b *testing.B, rep experiments.Report, key, unit string) {
	if v, ok := rep.Metrics[key]; ok {
		b.ReportMetric(v, unit)
	}
}

// --- Tables, figures, §V studies and extensions -----------------------------------

// experimentBenches lists each benchmarked experiment with the headline
// metrics (key, unit) it reports beside ns/op.
var experimentBenches = []struct {
	id      string
	metrics [][2]string
}{
	{"table1", [][2]string{{"faultCycles", "fault-cycles"}}},
	{"table2", [][2]string{{"meanMB", "mean-MB"}}},
	{"fig3", [][2]string{{"lru/mean", "lru-vs-ideal"}, {"rrip/mean", "rrip-vs-ideal"}}},
	{"fig7", [][2]string{{"maxSpread", "max-spread"}}},
	{"fig8", [][2]string{{"maxSpread", "max-spread"}}},
	{"fig9", [][2]string{{"ratio1/KMN", "kmn-ratio1"}}},
	{"fig10", [][2]string{{"mean75", "speedup@75"}, {"mean50", "speedup@50"}}},
	{"fig11", [][2]string{{"mean75", "ev-ratio@75"}, {"mean50", "ev-ratio@50"}}},
	{"fig12", [][2]string{{"perf75/HPE", "hpe-vs-ideal@75"}, {"hpeSpeedup75/RRIP", "hpe-vs-rrip@75"}}},
	{"fig13", [][2]string{{"switches75/BFS", "bfs-switches"}}},
	{"fig14", [][2]string{{"mean", "mean-comparisons"}}},
	{"fig15", [][2]string{{"mean/HSD", "hsd-entries"}}},
	{"transfer", [][2]string{{"norm/1", "ipc-at-interval-1"}}},
	{"walklat", [][2]string{{"delta/HPE", "hpe-delta"}}},
	{"overhead", [][2]string{{"classifyUS", "classify-us"}, {"load75/HPE", "hpe-load@75"}}},
	{"ext", [][2]string{{"mean/HPE", "hpe-vs-ideal"}, {"mean/ARC", "arc-vs-ideal"}}},
	{"sweep", [][2]string{{"speedup/90", "hpe-speedup@90"}, {"speedup/40", "hpe-speedup@40"}}},
	{"division", [][2]string{{"faults50/NW/off", "nw-faults-div-off"}}},
	{"channels", [][2]string{{"HPE/8", "hpe-8ch-speedup"}}},
	{"translation", [][2]string{{"geomean", "pwc-vs-l2tlb"}}},
	{"prefetch", [][2]string{{"LRU/15", "lru-pf15-speedup"}, {"HPE/15", "hpe-pf15-speedup"}}},
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experimentBenches {
		b.Run(e.id, func(b *testing.B) {
			var rep experiments.Report
			for i := 0; i < b.N; i++ {
				reps, err := experiments.NewSuite(experiments.Options{Quick: true, Seed: 1}).Reports([]string{e.id})
				if err != nil {
					b.Fatal(err)
				}
				rep = reps[0]
			}
			for _, m := range e.metrics {
				reportMetric(b, rep, m[0], m[1])
			}
		})
	}
}

// --- Ablations (DESIGN.md design-choice benches) --------------------------------

// thrashing is the Type II workload and memory the ablations use.
var thrashing = hpe.RunSpec{App: "HSD", Rate: 75}

// traceCache generates each workload's trace once, so benchmark loops time
// the simulation rather than trace generation.
func traceCache() hpe.RunEnv {
	var c runspec.Cache
	return hpe.RunEnv{Trace: c.Trace}
}

// runHPEConfig runs spec on the simulator with an HPE policy built from cfg
// — for ablation configs a RunSpec cannot express. The spec's own
// materialization supplies the trace, system config and HIR attachment.
func runHPEConfig(b *testing.B, sp hpe.RunSpec, env hpe.RunEnv, cfg hpecore.Config) hpe.Result {
	b.Helper()
	sp.Policy = "hpe"
	m, err := sp.Materialize(env)
	if err != nil {
		b.Fatal(err)
	}
	return gpu.Run(m.Config, m.Trace, hpecore.New(cfg))
}

// BenchmarkAblationHIRBatching compares full HPE (HIR, batched hits, transfer
// latency charged) against the ideal direct hit feed — the cost of the
// paper's hardware-frugal hit channel.
func BenchmarkAblationHIRBatching(b *testing.B) {
	env := traceCache()
	direct := thrashing
	direct.HIR = "off"
	cfg := hpecore.DefaultConfig()
	cfg.IdealHitFeed = true
	var batched, ideal uint64
	for i := 0; i < b.N; i++ {
		batched = mustRun(b, thrashing, "hpe", hpe.WithRunEnv(env)).Faults
		ideal = runHPEConfig(b, direct, env, cfg).Faults
	}
	b.ReportMetric(float64(batched), "faults-hir")
	b.ReportMetric(float64(ideal), "faults-idealfeed")
}

// BenchmarkAblationDynamicAdjustment quantifies Algorithm 1 on BFS, the
// paper's misclassification example: without adjustment BFS stays on LRU and
// thrashes.
func BenchmarkAblationDynamicAdjustment(b *testing.B) {
	env := traceCache()
	bfs := hpe.RunSpec{App: "BFS", Rate: 75}
	cfg := hpecore.DefaultConfig()
	cfg.DynamicAdjustment = false
	var on, off uint64
	for i := 0; i < b.N; i++ {
		on = mustRun(b, bfs, "hpe", hpe.WithRunEnv(env)).Faults
		off = runHPEConfig(b, bfs, env, cfg).Faults
	}
	b.ReportMetric(float64(on), "faults-adjust-on")
	b.ReportMetric(float64(off), "faults-adjust-off")
}

// BenchmarkAblationDivision quantifies page-set division on NW, the paper's
// even/odd example.
func BenchmarkAblationDivision(b *testing.B) {
	env := hpe.WithRunEnv(traceCache())
	nw := hpe.RunSpec{App: "NW", Rate: 50}
	undivided := nw
	undivided.Tuning.HPEDisableDivision = true
	var on, off uint64
	for i := 0; i < b.N; i++ {
		on = mustRun(b, nw, "hpe", env).Faults
		off = mustRun(b, undivided, "hpe", env).Faults
	}
	b.ReportMetric(float64(on), "faults-division-on")
	b.ReportMetric(float64(off), "faults-division-off")
}

// BenchmarkAblationExtraBaselines runs the baselines the paper mentions but
// does not plot (FIFO, LFU) on the thrashing workload.
func BenchmarkAblationExtraBaselines(b *testing.B) {
	env := hpe.WithRunEnv(traceCache())
	var fifo, lfu uint64
	for i := 0; i < b.N; i++ {
		fifo = mustRun(b, thrashing, "fifo", env).Faults
		lfu = mustRun(b, thrashing, "lfu", env).Faults
	}
	b.ReportMetric(float64(fifo), "faults-fifo")
	b.ReportMetric(float64(lfu), "faults-lfu")
}

// --- Probe overhead --------------------------------------------------------------

// BenchmarkNilProbe is the overhead contract of the observability layer: a
// run with no probe attached must match the pre-probe fast path (every
// emission site is one nil check). Compare against BenchmarkMetricsProbe to
// price the instrumentation itself.
func BenchmarkNilProbe(b *testing.B) {
	env := hpe.WithRunEnv(traceCache())
	total := 0
	for i := 0; i < b.N; i++ {
		res := mustRun(b, thrashing, "lru", env)
		total += int(res.Accesses)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkMetricsProbe runs the same simulation with a Metrics probe
// attached — the cheapest real probe, priced per event.
func BenchmarkMetricsProbe(b *testing.B) {
	env := hpe.WithRunEnv(traceCache())
	total := 0
	for i := 0; i < b.N; i++ {
		m := hpe.NewMetricsProbe()
		res := mustRun(b, thrashing, "lru", env, hpe.WithProbe(m))
		total += int(res.Accesses)
		if res.Probe == nil || res.Probe.Events == 0 {
			b.Fatal("metrics probe observed nothing")
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkSimulatorThroughput measures raw simulator speed (accesses per
// second of wall time) on the largest workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	kmn := hpe.RunSpec{App: "KMN", Rate: 75}
	env := hpe.WithRunEnv(traceCache())
	mustRun(b, kmn, "lru", env) // generate the trace outside the timed loop
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res := mustRun(b, kmn, "lru", env)
		total += int(res.Accesses)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkAblationSetGranularity separates HPE's two ingredients on the
// thrashing workload: page-level LRU vs set-level LRU (granularity only) vs
// full HPE (granularity + partitions + classification).
func BenchmarkAblationSetGranularity(b *testing.B) {
	env := hpe.WithRunEnv(traceCache())
	var page, set, full uint64
	for i := 0; i < b.N; i++ {
		page = mustRun(b, thrashing, "lru", env).Faults
		set = mustRun(b, thrashing, "setlru", env).Faults
		full = mustRun(b, thrashing, "hpe", env).Faults
	}
	b.ReportMetric(float64(page), "faults-page-lru")
	b.ReportMetric(float64(set), "faults-set-lru")
	b.ReportMetric(float64(full), "faults-hpe")
}
