// Benchmarks regenerating every table and figure of the paper's evaluation.
// One benchmark per artefact, in paper order; each runs the experiment over
// the reduced (quick) application subset so a full `go test -bench=.` sweep
// stays tractable, and reports the experiment's headline metric alongside
// ns/op. Run the full-catalog versions with `cmd/hpebench`.
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

func quickSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Options{Quick: true, Seed: 1})
}

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

func reportMetric(b *testing.B, rep experiments.Report, key, unit string) {
	if v, ok := rep.Metrics[key]; ok {
		b.ReportMetric(v, unit)
	}
}

// --- Table I & II -------------------------------------------------------------

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Table1()
		if i == b.N-1 {
			reportMetric(b, rep, "faultCycles", "fault-cycles")
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Table2()
		if i == b.N-1 {
			reportMetric(b, rep, "meanMB", "mean-MB")
		}
	}
}

// --- Figures ------------------------------------------------------------------

func BenchmarkFig3EvictionsVsIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig3()
		if i == b.N-1 {
			reportMetric(b, rep, "lru/mean", "lru-vs-ideal")
			reportMetric(b, rep, "rrip/mean", "rrip-vs-ideal")
		}
	}
}

func BenchmarkFig7PageSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig7()
		if i == b.N-1 {
			reportMetric(b, rep, "maxSpread", "max-spread")
		}
	}
}

func BenchmarkFig8IntervalLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig8()
		if i == b.N-1 {
			reportMetric(b, rep, "maxSpread", "max-spread")
		}
	}
}

func BenchmarkFig9Ratios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig9()
		if i == b.N-1 {
			reportMetric(b, rep, "ratio1/KMN", "kmn-ratio1")
		}
	}
}

func BenchmarkFig10SpeedupVsLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig10()
		if i == b.N-1 {
			reportMetric(b, rep, "mean75", "speedup@75")
			reportMetric(b, rep, "mean50", "speedup@50")
		}
	}
}

func BenchmarkFig11EvictionsVsLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig11()
		if i == b.N-1 {
			reportMetric(b, rep, "mean75", "ev-ratio@75")
			reportMetric(b, rep, "mean50", "ev-ratio@50")
		}
	}
}

func BenchmarkFig12AllPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig12()
		if i == b.N-1 {
			reportMetric(b, rep, "perf75/HPE", "hpe-vs-ideal@75")
			reportMetric(b, rep, "hpeSpeedup75/RRIP", "hpe-vs-rrip@75")
		}
	}
}

func BenchmarkFig13AdjustmentBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig13()
		if i == b.N-1 {
			reportMetric(b, rep, "switches75/BFS", "bfs-switches")
		}
	}
}

func BenchmarkFig14SearchOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig14()
		if i == b.N-1 {
			reportMetric(b, rep, "mean", "mean-comparisons")
		}
	}
}

func BenchmarkFig15HIREntries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Fig15()
		if i == b.N-1 {
			reportMetric(b, rep, "mean/HSD", "hsd-entries")
		}
	}
}

// --- Section V-A / V-B / V-C ---------------------------------------------------

func BenchmarkTransferIntervalSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.TransferInterval()
		if i == b.N-1 {
			reportMetric(b, rep, "norm/1", "ipc-at-interval-1")
		}
	}
}

func BenchmarkWalkLatencySensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.WalkLatency()
		if i == b.N-1 {
			reportMetric(b, rep, "delta/HPE", "hpe-delta")
		}
	}
}

func BenchmarkOverheadAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.Overheads()
		if i == b.N-1 {
			reportMetric(b, rep, "classifyUS", "classify-us")
			reportMetric(b, rep, "load75/HPE", "hpe-load@75")
		}
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

// --- Extension experiments -------------------------------------------------------

func BenchmarkExtExtendedPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.ExtendedPolicies()
		if i == b.N-1 {
			reportMetric(b, rep, "mean/HPE", "hpe-vs-ideal")
			reportMetric(b, rep, "mean/ARC", "arc-vs-ideal")
		}
	}
}

func BenchmarkExtOversubscriptionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.OversubscriptionSweep()
		if i == b.N-1 {
			reportMetric(b, rep, "speedup/90", "hpe-speedup@90")
			reportMetric(b, rep, "speedup/40", "hpe-speedup@40")
		}
	}
}

func BenchmarkExtDivisionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.DivisionStudy()
		if i == b.N-1 {
			reportMetric(b, rep, "faults50/NW/off", "nw-faults-div-off")
		}
	}
}

func BenchmarkExtChannelStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.ChannelStudy()
		if i == b.N-1 {
			reportMetric(b, rep, "HPE/8", "hpe-8ch-speedup")
		}
	}
}

func BenchmarkExtTranslationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.TranslationStudy()
		if i == b.N-1 {
			reportMetric(b, rep, "geomean", "pwc-vs-l2tlb")
		}
	}
}

func BenchmarkExtPrefetchStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := quickSuite()
		rep := s.PrefetchStudy()
		if i == b.N-1 {
			reportMetric(b, rep, "LRU/15", "lru-pf15-speedup")
			reportMetric(b, rep, "HPE/15", "hpe-pf15-speedup")
		}
	}
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
