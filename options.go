package hpe

import (
	"context"
	"io"

	"hpe/internal/probe"
	"hpe/internal/registry"
	"hpe/internal/runspec"
)

// Observability vocabulary re-exported from internal/probe.
type (
	// Probe consumes the typed instrumentation event stream of a run.
	Probe = probe.Probe
	// ProbeEvent is one instrumentation event (see the probe package's
	// event taxonomy).
	ProbeEvent = probe.Event
	// ProbeKind enumerates the event taxonomy.
	ProbeKind = probe.Kind
	// ProbeSnapshot is the Metrics probe's aggregate summary, surfaced as
	// Result.Probe.
	ProbeSnapshot = probe.Snapshot
	// MetricsProbe aggregates per-event-kind latency and inter-arrival
	// histograms.
	MetricsProbe = probe.Metrics
	// ChromeTraceProbe streams Chrome trace_event JSON for
	// chrome://tracing / Perfetto.
	ChromeTraceProbe = probe.ChromeTrace
	// ChromeTraceConfig parameterises a ChromeTraceProbe.
	ChromeTraceConfig = probe.ChromeTraceConfig
)

// NewMetricsProbe returns an empty metrics-aggregating probe.
func NewMetricsProbe() *MetricsProbe { return probe.NewMetrics() }

// NewChromeTraceProbe returns a probe streaming Chrome trace_event JSON to w.
func NewChromeTraceProbe(w io.Writer, cfg ChromeTraceConfig) *ChromeTraceProbe {
	return probe.NewChromeTrace(w, cfg)
}

// MultiProbe fans one event stream out to several probes (nils dropped).
func MultiProbe(ps ...Probe) Probe { return probe.Multi(ps...) }

// ProbeEventNames lists every event-kind name in taxonomy order.
func ProbeEventNames() []string { return probe.KindNames() }

// runConfig collects the RunOption state for one Run/ReplaySpec call.
type runConfig struct {
	probes []probe.Probe
	ctx    context.Context
	env    runspec.Env
}

// RunOption customises one simulation or replay run. Options are run-scoped
// concerns (instrumentation, cancellation, shared caches) that do not belong
// in the run's identity: the RunSpec describes what is simulated, options
// only how the host runs it.
type RunOption func(*runConfig)

// WithProbe attaches an instrumentation probe to the run; repeating the
// option composes probes. The run flushes attached probes on completion.
// With no probe attached the simulator keeps its exact uninstrumented fast
// path (a single nil check per emission site).
func WithProbe(p Probe) RunOption {
	return func(rc *runConfig) {
		if p != nil {
			rc.probes = append(rc.probes, p)
		}
	}
}

// WithContext ties the run to ctx: the simulation polls for cancellation
// every few thousand events and stops early when ctx is done, marking the
// result Cancelled. This is how servers abort work for disconnected clients
// and how the CLIs honour Ctrl-C. A never-cancellable context (Background)
// keeps the exact unpolled fast path.
func WithContext(ctx context.Context) RunOption {
	return func(rc *runConfig) { rc.ctx = ctx }
}

// WithRunEnv supplies shared trace/future-index caches to Run and ReplaySpec,
// so long-lived callers (servers, sweeps) generate each workload's reference
// string once.
func WithRunEnv(env RunEnv) RunOption {
	return func(rc *runConfig) { rc.env = runspec.Env(env) }
}

// applyRunOptions folds the options into one run configuration.
func applyRunOptions(opts []RunOption) runConfig {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	return rc
}

// flushProbe finalises a run's probe; flush errors surface on the probe
// itself (e.g. ChromeTraceProbe.Err) rather than failing the run.
func flushProbe(p Probe) {
	if p != nil {
		_ = p.Flush()
	}
}

// PolicyInfo describes one registered policy.
type PolicyInfo = registry.Info

// PolicyNames lists the canonical registry policy names in paper order —
// the names a RunSpec's Policy field accepts (aliases like "clock-pro" and
// "belady" resolve too).
func PolicyNames() []string { return registry.Names() }

// Policies returns every registered policy's metadata in paper order.
func Policies() []PolicyInfo { return registry.Infos() }

// LookupPolicy returns the metadata of a policy name (canonical or alias).
func LookupPolicy(name string) (PolicyInfo, bool) { return registry.Lookup(name) }
