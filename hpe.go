// Package hpe is a Go reproduction of "HPE: Hierarchical Page Eviction
// Policy for Unified Memory in GPUs" (Yu, Childers, Huang, Qian, Wang;
// IEEE TCAD 2019): a discrete-event GPU unified-memory simulator, the HPE
// eviction policy, the paper's comparison policies (LRU, Random, RRIP,
// CLOCK-Pro, Belady-MIN "Ideal", plus FIFO and LFU), synthetic generators
// for the 23 Table II workloads, and a harness that regenerates every table
// and figure of the evaluation.
//
// This package is the public facade. Every result is named by a RunSpec —
// the paper's (workload, eviction policy, oversubscription rate) triple plus
// the system knobs — and Run simulates it. Quick start:
//
//	lru, _ := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "lru", Rate: 75})
//	hp, _ := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "hpe", Rate: 75})
//	fmt.Printf("speedup %.2fx\n", hp.IPC/lru.IPC)
//
// ReplaySpec replays the same spec timing-free, and PolicyNames lists the
// registry names a spec's Policy field accepts.
//
// The full evaluation (Reports plans every requested experiment's cells,
// shards their union across Workers goroutines, then renders; reports are
// byte-identical at any worker count, and Workers: 1 is the serial
// debugging path):
//
//	suite := hpe.NewSuite(hpe.SuiteOptions{Workers: runtime.GOMAXPROCS(0)})
//	reps, err := suite.Reports(hpe.ExperimentIDs())
//	if err != nil { log.Fatal(err) }
//	for _, rep := range reps { fmt.Println(rep) }
//
// Architecture (bottom-up): internal/sim (event engine), internal/addrspace
// (pages and page sets), internal/trace (reference strings + Belady oracle
// index), internal/workload (Fig. 2 pattern generators, Table II catalog),
// internal/tlb + internal/mem + internal/hir (GPU-side state), internal/uvm
// (host driver: fault queue, HIR drains), internal/policy (baselines),
// internal/hpe (the contribution), internal/gpu (the simulator),
// internal/experiments (the per-figure harness). See DESIGN.md.
package hpe

import (
	"context"

	"hpe/internal/addrspace"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	hpecore "hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// Core vocabulary re-exported from the internal packages.
type (
	// PageID identifies a 4-KB virtual page.
	PageID = addrspace.PageID
	// SetID identifies a page set (16 virtually contiguous pages by default).
	SetID = addrspace.SetID
	// Trace is a page-granularity reference string with kernel barriers.
	Trace = trace.Trace
	// App is one Table II application model.
	App = workload.App
	// PatternType is the Fig. 2 access-pattern taxonomy.
	PatternType = workload.PatternType
	// Result summarises one simulation run.
	Result = gpu.Result
	// HPEStats is HPE's internal bookkeeping snapshot.
	HPEStats = hpecore.Stats
	// ReplayResult is a timing-free reference-string replay summary.
	ReplayResult = policy.ReplayResult
	// Suite runs the paper's experiments with shared caching. It is safe
	// for concurrent use; see the experiments package comment for the
	// concurrency contract.
	Suite = experiments.Suite
	// SuiteOptions scales the experiment suite. Workers sets the number of
	// concurrent simulation workers (0/1 = serial, identical output).
	SuiteOptions = experiments.Options
	// Report is one experiment's rendered output and headline metrics.
	Report = experiments.Report
	// RunSpec is the canonical, content-addressed description of one
	// simulation — the same identity the experiment suite, hped, and the
	// CLIs share. Build one, then hand it to Run. See DESIGN.md §12.
	RunSpec = runspec.Spec
	// RunTuning is the RunSpec's sensitivity-knob block (suite-internal
	// studies; the zero value is the paper configuration).
	RunTuning = runspec.Tuning
	// RunEnv supplies trace/future-index caches to Run; the zero value
	// generates everything on demand.
	RunEnv = runspec.Env
	// Scenario is a named workload-v2 preset: a temporal phase schedule or
	// a multi-tenant colocation, ready to drop into a RunSpec.
	Scenario = workload.Scenario
)

// Pattern type constants (Fig. 2).
const (
	PatternStreaming           = workload.PatternStreaming
	PatternThrashing           = workload.PatternThrashing
	PatternPartRepetitive      = workload.PatternPartRepetitive
	PatternMostRepetitive      = workload.PatternMostRepetitive
	PatternRepetitiveThrashing = workload.PatternRepetitiveThrashing
	PatternRegionMoving        = workload.PatternRegionMoving
	PatternTemporal            = workload.PatternTemporal
	PatternColocated           = workload.PatternColocated
)

// Workloads returns the 23 Table II application models.
func Workloads() []App { return workload.Catalog() }

// WorkloadByAbbr finds a catalog application by its paper abbreviation
// (e.g. "HSD", "BFS").
func WorkloadByAbbr(abbr string) (App, bool) { return workload.ByAbbr(abbr) }

// WorkloadsByPattern returns the catalog applications with the given
// Fig. 2 pattern type.
func WorkloadsByPattern(p PatternType) []App { return workload.ByPattern(p) }

// Scenarios returns the named workload-v2 presets (phase schedules and
// colocations), in catalog order.
func Scenarios() []Scenario { return workload.Scenarios() }

// ScenarioByName finds a workload-v2 preset by name (e.g. "diurnal").
func ScenarioByName(name string) (Scenario, bool) { return workload.ScenarioByName(name) }

// Run executes one canonical run description end to end: the spec is
// canonicalized, materialized into (workload, trace, system config, policy),
// and simulated. This is the entry point the CLIs and hped share — the same
// spec produces the same simulation everywhere, cached under Spec.ID():
//
//	r, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "hpe", Rate: 75})
//
// WithProbe attaches instrumentation, WithContext makes the run
// cancellable, and WithRunEnv plugs in long-lived trace caches.
func Run(sp RunSpec, opts ...RunOption) (Result, error) {
	rc := applyRunOptions(opts)
	m, err := sp.Materialize(rc.env)
	if err != nil {
		return Result{}, err
	}
	pr := probe.Multi(rc.probes...)
	var gopts []gpu.Option
	if pr != nil {
		gopts = append(gopts, gpu.WithProbe(pr))
	}
	if rc.ctx != nil {
		gopts = append(gopts, gpu.WithContext(rc.ctx))
	}
	r := gpu.Run(m.Config, m.Trace, m.Policy, gopts...)
	flushProbe(pr)
	return r, nil
}

// ReplaySpec is the spec-backed replay path: the spec's workload, capacity
// and policy, replayed timing-free (no TLBs or latencies). Timing-only spec
// dimensions (design, datapath, max-cycles, tuning latencies) don't apply,
// and neither does the HIR: HPE sees walk hits only under the ideal hit
// feed of Tuning.SensitivityHPE. WithProbe events carry the trace position
// as their timestamp.
func ReplaySpec(sp RunSpec, opts ...RunOption) (ReplayResult, error) {
	rc := applyRunOptions(opts)
	m, err := sp.Materialize(rc.env)
	if err != nil {
		return ReplayResult{}, err
	}
	pr := probe.Multi(rc.probes...)
	ctx := rc.ctx
	if ctx == nil {
		//lint:ignore hpelint/ctxflow omitting WithContext means "not cancellable" by documented contract; Background keeps the unpolled fast path
		ctx = context.Background()
	}
	r := policy.ReplayContext(ctx, m.Trace, m.Policy, m.Capacity, pr)
	flushProbe(pr)
	return r, nil
}

// NewSuite builds the experiment harness over the full catalog (or the
// quick subset).
func NewSuite(opts SuiteOptions) *Suite { return experiments.NewSuite(opts) }

// ExperimentIDs lists the reproducible tables and figures in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// HPEStatsOf extracts the HPE bookkeeping from a result, when the run used
// HPE.
func HPEStatsOf(r Result) (HPEStats, bool) {
	if r.HPE == nil {
		return HPEStats{}, false
	}
	return *r.HPE, true
}
