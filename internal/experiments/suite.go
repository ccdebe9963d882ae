// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V). Each experiment is a function on a Suite; the
// Suite caches generated traces and simulation results so that figures
// sharing runs (e.g. Figs. 10–15 all reuse the HPE runs) pay for them once.
//
// DESIGN.md §5 maps each experiment to its paper counterpart; EXPERIMENTS.md
// records paper-reported vs measured values.
//
// # Run identity
//
// Every simulation is described by a runspec.Spec and keyed by its
// content-addressed Spec.ID() — the same canonical identity hped and the
// CLIs use, so a run cached here is the same run everywhere. Experiment
// functions build Specs (plain cells via Run, customised cells via RunSpec)
// and never touch gpu.Config directly; the spec materializer owns every
// knob.
//
// # Concurrency contract
//
// A Suite is safe for concurrent use by multiple goroutines. Every memoized
// cache (traces and Belady future indexes in a runspec.Cache, simulation
// results in a flight.Memo) deduplicates in flight: when two goroutines ask
// for the same run, one computes it while the other blocks and receives the
// same value, so each spec is simulated exactly once per Suite regardless of
// interleaving. Cached values are immutable once published — traces have
// their lazy footprint primed before they are shared — so readers never
// observe partial state. Options.Workers sets the parallelism of Prewarm and
// Reports; because every simulation is deterministic and aggregation walks
// the caches in canonical (catalog × paper) order, a parallel run renders
// byte-identical reports to a serial one. The Progress callback is
// serialized: it is never invoked concurrently, though line order under
// Workers > 1 follows completion order, not canonical order.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"

	"hpe/internal/flight"
	"hpe/internal/gpu"
	"hpe/internal/probe"
	"hpe/internal/registry"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// ComparisonPolicies is the paper's Fig. 12 policy set, by registry name.
var ComparisonPolicies = []string{"lru", "random", "rrip", "clockpro", "hpe", "ideal"}

// Options scales the experiment suite.
type Options struct {
	// Quick restricts runs to a representative subset of applications (one
	// or two per pattern type), for smoke runs and benchmarks.
	Quick bool
	// Seed feeds the Random policy.
	Seed int64
	// Progress, when non-nil, receives a line per completed simulation.
	// Invocations are serialized but, under Workers > 1, arrive in
	// completion order.
	Progress func(string)
	// Workers is the number of goroutines Prewarm and Reports spread the
	// run matrix across. 0 and 1 both mean fully serial execution (the
	// debugging path); typical callers pass runtime.GOMAXPROCS(0). Results
	// are byte-identical either way.
	Workers int
	// Probe, when non-nil, is invoked once per simulation (each memoized
	// cell runs exactly once regardless of workers) to build that run's
	// instrumentation probe; returning nil leaves the run unprobed. The
	// probe is flushed when the run completes. Probes observe only, so
	// attaching them never changes a report.
	Probe func(RunInfo) probe.Probe
	// Context, when non-nil, cancels the suite: in-flight simulations stop
	// at their next cancellation poll, the worker pool drains, and Reports
	// returns the context's error. Cancelled (partial) simulation results
	// are never cached. nil means context.Background() — no polling, the
	// exact pre-context fast path.
	Context context.Context
	// Runner, when non-nil, replaces local simulation: every cell of the run
	// matrix is delegated to it instead of being materialized and simulated
	// in-process. The spec is already canonical and id is its content
	// address, so a Runner can route the cell anywhere that speaks the
	// runspec wire form — the cluster coordinator consistent-hashes id to a
	// backend and POSTs the spec. Determinism makes the substitution exact:
	// a remote result is byte-for-byte the result local simulation would
	// have produced. On error the Runner should cancel Options.Context
	// (Reports then returns that error); the failed cell yields a Cancelled
	// placeholder that is never cached. Options.Probe is not invoked for
	// delegated cells — instrumentation belongs to the executing side.
	Runner func(ctx context.Context, sp runspec.Spec, id string) (gpu.Result, error)
}

// RunInfo identifies one simulation of the run matrix, as handed to the
// Options.Probe factory. It is comparable, so probes may key on it.
type RunInfo struct {
	// Spec is the canonical description of the run.
	Spec runspec.Spec
	// ID is Spec.ID() — the run's cache key here and its content address
	// everywhere else (hped, replay, the CLIs).
	ID string
}

// Suite owns the cached traces and results. See the package comment for the
// concurrency contract.
type Suite struct {
	opts Options
	apps []workload.App

	cache   runspec.Cache
	env     runspec.Env                     // materializes through cache
	results flight.Memo[string, gpu.Result] // keyed by Spec.ID()

	progressMu sync.Mutex
}

// NewSuite builds a suite over the full Table II catalog (or the quick
// subset).
func NewSuite(opts Options) *Suite {
	s := &Suite{opts: opts}
	s.env = runspec.Env{Trace: s.cache.Trace, Future: s.cache.Future}
	if opts.Quick {
		for _, abbr := range []string{"HOT", "GEM", "HSD", "STN", "PAT", "KMN", "NW", "BFS", "SGM", "B+T"} {
			app, ok := workload.ByAbbr(abbr)
			if !ok {
				panic("experiments: quick subset references unknown app " + abbr)
			}
			s.apps = append(s.apps, app)
		}
	} else {
		s.apps = workload.Catalog()
	}
	return s
}

// Apps returns the applications in play.
func (s *Suite) Apps() []workload.App { return s.apps }

// ctx returns the suite's cancellation context (Background when unset).
func (s *Suite) ctx() context.Context {
	if s.opts.Context != nil {
		return s.opts.Context
	}
	//lint:ignore hpelint/ctxflow nil Options.Context means "not cancellable" by documented contract; Background keeps the unpolled fast path
	return context.Background()
}

// Trace returns the app's canonical trace, shared with every run of it.
func (s *Suite) Trace(app workload.App) *trace.Trace { return s.cache.Trace(app) }

// CachedRuns reports how many simulation results the Suite has memoized.
func (s *Suite) CachedRuns() int { return s.results.Len() }

// capacityFor translates an oversubscription rate into a device-memory size.
func capacityFor(tr *trace.Trace, ratePct int) int {
	return runspec.CapacityFor(tr, ratePct)
}

// spec builds the suite's base spec for one (app, policy, rate) cell. The
// suite's policy seed is Options.Seed+1 (the historical suite seeding; the
// golden results.json pins it).
func (s *Suite) spec(app workload.App, policy string, ratePct int) runspec.Spec {
	return runspec.Spec{App: app.Abbr, Policy: policy, Rate: ratePct, Seed: s.opts.Seed + 1}
}

// Run returns the cached or freshly simulated result for the plain
// (app, policy, rate) cell. Concurrent callers for the same cell share one
// simulation.
func (s *Suite) Run(app workload.App, policy string, ratePct int) gpu.Result {
	return s.RunSpec(s.spec(app, policy, ratePct))
}

// RunSpec returns the cached or freshly simulated result for an arbitrary
// spec, keyed by its content address: two specs meaning the same run —
// however they were spelled — share one cache cell. Invalid specs panic;
// experiment code builds its specs from the catalog, so an invalid spec is
// a programming error, not input.
func (s *Suite) RunSpec(sp runspec.Spec) gpu.Result {
	c, err := sp.Canonicalize()
	if err != nil {
		panic("experiments: " + err.Error())
	}
	id := c.ID()
	r, computed := s.results.Do(id, func() (gpu.Result, bool) {
		r := s.simulate(c, id)
		// A cancelled (partial) result must never be published under the
		// spec's ID: a later identical request would mistake it for the
		// complete run. Waiters of this flight still receive the value —
		// they share the cancelled context and their aggregation is about
		// to be abandoned anyway.
		return r, !r.Cancelled
	})
	if computed {
		disp := registry.DisplayName(c.Policy)
		if v := c.VariantLabel(); v != "" {
			s.progress(fmt.Sprintf("%-5s %-9s @%d%% [%s]: %v", c.App, disp, c.Rate, v, r))
		} else {
			s.progress(fmt.Sprintf("%-5s %-9s @%d%%: %v", c.App, disp, c.Rate, r))
		}
	}
	return r
}

// simulate materializes and runs one spec, attaching (and flushing) the
// caller's probe when an Options.Probe factory is set. When Options.Runner
// is set the cell is delegated instead; a Runner error yields a Cancelled
// placeholder, which RunSpec's cacheable verdict keeps out of the memo.
func (s *Suite) simulate(sp runspec.Spec, id string) gpu.Result {
	if s.opts.Runner != nil {
		r, err := s.opts.Runner(s.ctx(), sp, id)
		if err != nil {
			return gpu.Result{Cancelled: true}
		}
		return r
	}
	m, err := sp.Materialize(s.env)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	var opts []gpu.Option
	if s.opts.Context != nil {
		opts = append(opts, gpu.WithContext(s.opts.Context))
	}
	var pr probe.Probe
	if s.opts.Probe != nil {
		pr = s.opts.Probe(RunInfo{Spec: sp, ID: id})
		if pr != nil {
			opts = append(opts, gpu.WithProbe(pr))
		}
	}
	r := gpu.Run(m.Config, m.Trace, m.Policy, opts...)
	if pr != nil {
		if err := pr.Flush(); err != nil {
			s.progress(fmt.Sprintf("probe flush %s/%s@%d%%: %v", sp.App, sp.Policy, sp.Rate, err))
		}
	}
	return r
}

// display renders a registry policy name the way the paper does.
func display(policy string) string { return registry.DisplayName(policy) }

// progress emits one line to the Progress callback, serialized.
func (s *Suite) progress(line string) {
	if s.opts.Progress == nil {
		return
	}
	s.progressMu.Lock()
	s.opts.Progress(line)
	s.progressMu.Unlock()
}

// Report is an experiment's rendered output plus its headline numbers for
// programmatic checks (tests, EXPERIMENTS.md generation).
type Report struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("=== %s: %s ===\n%s", r.ID, r.Title, r.Text)
}

// JSONMetrics returns the report's metrics in the one wire form that
// `hpebench -json` and hped's /v1/suite share. JSON has no ±Inf/NaN (e.g.
// MVT's ratio1 is +Inf): infinities are clamped to the float64 extremes and
// NaNs dropped, and every such key is recorded in clamped (nil when nothing
// was rewritten) so the output says what happened instead of silently
// rewriting values.
func (r Report) JSONMetrics() (metrics map[string]float64, clamped map[string]string) {
	metrics = make(map[string]float64, len(r.Metrics))
	note := func(k, why string) {
		if clamped == nil {
			clamped = make(map[string]string)
		}
		clamped[k] = why
	}
	for k, v := range r.Metrics {
		switch {
		case math.IsNaN(v):
			note(k, "NaN: dropped")
			continue
		case math.IsInf(v, 1):
			note(k, "+Inf: clamped to +MaxFloat64")
			v = math.MaxFloat64
		case math.IsInf(v, -1):
			note(k, "-Inf: clamped to -MaxFloat64")
			v = -math.MaxFloat64
		}
		metrics[k] = v
	}
	return metrics, clamped
}
