package runspec

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/registry"
	"hpe/internal/sim"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// Env supplies the environment a materialization draws on. Every hook is
// optional: the zero Env generates traces on demand and builds offline
// policies' future index from the materialized trace. Long-lived callers
// (the experiment suite, hped, hpesim) plug a Cache's methods in here so
// repeated materializations of the same workload share one trace
// generation.
type Env struct {
	// Trace returns the canonical trace of app (already scaled). When nil,
	// the trace is generated fresh.
	Trace func(app workload.App) *trace.Trace
	// Future returns a Belady future index over the app's trace, for the
	// offline Ideal policy. When nil, Ideal builds the index itself.
	Future func(app workload.App, tr *trace.Trace) *trace.FutureIndex
	// ReadTrace resolves a "trace:<path>" app source to its captured trace.
	// When nil, the path is opened as a local .hpet file — servers that must
	// not touch the filesystem install a hook that rejects or redirects.
	ReadTrace func(path string) (*trace.Trace, error)
}

// readTrace resolves a trace: source through the env hook or the filesystem.
func (e Env) readTrace(path string) (*trace.Trace, error) {
	if e.ReadTrace != nil {
		return e.ReadTrace(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// Materialized is everything the simulator needs for one run, derived from
// one canonical Spec: the Spec → (gpu.Config, Trace, Policy) materializer
// that replaces the per-layer knob-plumbing the suite, server, and CLIs
// used to duplicate.
type Materialized struct {
	// App is the (scaled) workload the run simulates.
	App workload.App
	// Trace is the reference string.
	Trace *trace.Trace
	// Capacity is the device-memory size in pages implied by Rate.
	Capacity int
	// Config is the fully-knobbed Table I system configuration.
	Config gpu.Config
	// Policy is a fresh policy instance for this run.
	Policy policy.Policy
}

// CapacityFor translates an oversubscription rate into a device-memory size:
// a rate of 75% means 75% of the trace footprint fits. Never below one page.
func CapacityFor(tr *trace.Trace, ratePct int) int {
	c := int(math.Ceil(float64(tr.Footprint()) * float64(ratePct) / 100))
	if c < 1 {
		c = 1
	}
	return c
}

// Materialize canonicalizes the spec and builds the run's workload, trace,
// system configuration, and policy instance. Every layer — suite, server,
// CLIs, replay — materializes specs through here, so a knob exists exactly
// once.
func (s Spec) Materialize(env Env) (Materialized, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return Materialized{}, err
	}
	app, err := c.sourceApp(env)
	if err != nil {
		return Materialized{}, err
	}
	app = app.Scaled(c.Scale)
	var tr *trace.Trace
	if env.Trace != nil {
		tr = env.Trace(app)
	} else {
		tr = app.Generate()
	}
	capacity := CapacityFor(tr, c.Rate)

	cfg := gpu.DefaultConfig(capacity)
	cfg.ComputeGap = sim.Cycle(max(0, app.ComputeGap))
	cfg.Driver.PrefetchPages = c.Prefetch
	cfg.Driver.Channels = c.Channels
	cfg.ModelDataPath = c.DataPath
	cfg.MaxCycles = sim.Cycle(c.MaxCycles)
	if c.Design == "pwc" {
		cfg.Translation = gpu.DesignPWC
	}
	cfg.UseHIR = c.HIR == "on"
	cfg.Prepopulate = c.Tuning.Prepopulate
	if c.Tuning.WalkLatency != 0 {
		cfg.WalkLatency = sim.Cycle(c.Tuning.WalkLatency)
	}
	if c.Tuning.TransferInterval != 0 {
		cfg.Driver.TransferInterval = c.Tuning.TransferInterval
	}
	if c.Tuning.HIREntries != 0 {
		cfg.HIREntries = c.Tuning.HIREntries
	}

	future := func() *trace.FutureIndex { return trace.BuildFutureIndex(tr) }
	if env.Future != nil {
		future = func() *trace.FutureIndex { return env.Future(app, tr) }
	}
	ropts := registry.Options{
		Seed:          c.Seed,
		Capacity:      capacity,
		Future:        future,
		ThrashingRRIP: app.Pattern == workload.PatternThrashing,
	}
	if c.Policy == "hpe" {
		hc := hpeConfigFor(app, c.Tuning)
		ropts.HPE = &hc
	}
	pol, err := registry.New(c.Policy, ropts)
	if err != nil {
		return Materialized{}, err
	}
	return Materialized{App: app, Trace: tr, Capacity: capacity, Config: cfg, Policy: pol}, nil
}

// Run materializes the spec and simulates it: the one run path behind
// hpe.Run, the experiment suite's local cells and every Runner that
// simulates in process. A nil ctx leaves the run unpolled and a nil pr
// leaves it uninstrumented, the simulator's exact fast path. The caller
// that owns pr flushes it.
func (s Spec) Run(ctx context.Context, env Env, pr probe.Probe) (gpu.Result, error) {
	m, err := s.Materialize(env)
	if err != nil {
		return gpu.Result{}, err
	}
	var opts []gpu.Option
	if ctx != nil {
		opts = append(opts, gpu.WithContext(ctx))
	}
	if pr != nil {
		opts = append(opts, gpu.WithProbe(pr))
	}
	return gpu.Run(m.Config, m.Trace, m.Policy, opts...), nil
}

// sourceApp resolves the canonical spec's workload source — catalog
// abbreviation, phase schedule, tenant colocation, or captured trace — to the
// App the run simulates. The spec is already canonical, so the scenario
// strings re-parse without error; only trace loading can fail.
func (c Spec) sourceApp(env Env) (workload.App, error) {
	switch {
	case c.Phases != "":
		ps, err := workload.ParsePhases(c.Phases)
		if err != nil {
			return workload.App{}, err
		}
		return ps.App(), nil
	case c.Tenants != "":
		co, err := workload.ParseTenants(c.Tenants)
		if err != nil {
			return workload.App{}, err
		}
		return co.App(c.Interleave), nil
	case strings.HasPrefix(c.App, "trace:"):
		path := c.App[len("trace:"):]
		tr, err := env.readTrace(path)
		if err != nil {
			return workload.App{}, fmt.Errorf("runspec: load trace source %q: %w", path, err)
		}
		return workload.FromTrace(path, tr), nil
	default:
		app, _ := workload.ByAbbr(c.App) // canonical spec: lookup cannot fail
		return app, nil
	}
}

// hpeConfigFor derives the HPE policy configuration from the tuning knobs;
// the zero Tuning yields exactly hpe.DefaultConfig().
func hpeConfigFor(app workload.App, t Tuning) hpe.Config {
	hc := hpe.DefaultConfig()
	if t.SetSizeShift != 0 {
		hc.Geometry = addrspace.NewGeometry(t.SetSizeShift)
	}
	if t.HPEInterval != 0 {
		hc.IntervalFaults = t.HPEInterval
	}
	if t.SensitivityHPE {
		hc.DynamicAdjustment = false
		hc.IdealHitFeed = true
		strat := ManualStrategy(app)
		hc.ManualStrategy = &strat
	}
	hc.DivisionCounterThreshold = t.HPEDivisionThreshold
	hc.DisableDivision = t.HPEDisableDivision
	return hc
}

// ManualStrategy returns the per-application strategy the paper's
// sensitivity methodology (Figs. 7–8) assigns manually: MRU-C for the
// regular applications (Types I–III except the KMN/SAD outliers, plus SGM),
// LRU for the rest.
func ManualStrategy(app workload.App) hpe.Strategy {
	switch app.Pattern {
	case workload.PatternStreaming, workload.PatternThrashing:
		return hpe.StrategyMRUC
	case workload.PatternPartRepetitive:
		if app.Abbr == "KMN" || app.Abbr == "SAD" {
			return hpe.StrategyLRU
		}
		return hpe.StrategyMRUC
	default:
		if app.Abbr == "SGM" {
			return hpe.StrategyMRUC
		}
		return hpe.StrategyLRU
	}
}
