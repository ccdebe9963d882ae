package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"runtime"
	"sync"

	"hpe"
	"hpe/internal/probe"
	"hpe/internal/promtext"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of concurrent simulations; defaults to
	// GOMAXPROCS.
	Workers int
	// QueueDepth is how many admitted computations may wait beyond the
	// running ones before submissions get 429; defaults to 4×Workers.
	QueueDepth int
	// CacheBytes is the result cache's byte budget; defaults to 256 MiB.
	// Negative disables caching.
	CacheBytes int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
}

// New builds a single simulating hped: the handler set over the local
// executor.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	l := &local{
		cfg:       cfg,
		adm:       newAdmission(cfg.Workers, cfg.QueueDepth),
		simEvents: make(map[string]uint64),
	}
	s := Mount(l, Surface{Name: "server", Source: "simulate", CacheBytes: cfg.CacheBytes, Logf: cfg.Logf})
	l.met = s.met
	return s
}

// local is the single-node Executor: the bounded admission queue in front of
// the simulator, a trace cache for the process lifetime, and the simulator
// event totals merged from every served run's probe.
type local struct {
	cfg Config
	adm *admission
	met *serverMetrics // the handler set's; prices Retry-After

	// traces memoizes the catalog apps at their paper geometry for the
	// process lifetime (see trace); a future index per app would grow the
	// daemon's resident set, so only the Trace hook is served.
	traces runspec.Cache

	simMu     sync.Mutex
	simEvents map[string]uint64 // guarded by simMu; probe kind name → total events
}

// HealthBody is the /healthz response: liveness plus the capacity figures
// the cluster coordinator sizes its per-backend dispatch window and
// saturation model from.
type HealthBody struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Queue   int    `json:"queue"`
}

func (l *local) Admit(ctx context.Context, id string) (func(), error) {
	release, err := l.adm.admit(ctx)
	if errors.Is(err, errQueueFull) {
		return nil, &Error{Status: http.StatusTooManyRequests, Code: ErrQueueFull,
			Msg: "admission queue full; retry after the Retry-After hint", RunID: id}
	}
	return release, err
}

// Run executes one canonicalized run spec under ctx and renders its
// response body. The spec → (config, trace, policy) materialization lives in
// runspec; the executor only contributes its long-lived trace cache and its
// metrics probe. Cancelled (partial) results are reported as errors and never
// rendered or cached.
func (l *local) Run(ctx context.Context, sp runspec.Spec, id string) ([]byte, error) {
	m := hpe.NewMetricsProbe()
	res, err := hpe.Run(sp,
		hpe.WithContext(ctx),
		hpe.WithProbe(m),
		hpe.WithRunEnv(hpe.RunEnv{Trace: l.trace}))
	if err != nil {
		return nil, err
	}
	l.mergeProbe(res.Probe)
	if res.Cancelled {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	body, err := json.Marshal(RunResponse{ID: id, Request: sp, Result: res})
	if err != nil {
		return nil, fmt.Errorf("render result: %w", err)
	}
	return append(body, '\n'), nil
}

// trace is the runs' Trace hook. It memoizes only the 23 catalog apps at
// their paper geometry, the traces that sweeps and repeated runs share;
// every other source (a scaled app, a phase schedule, a colocation) is
// generated per run, so distinct requests cannot grow the memo without
// bound.
func (l *local) trace(app workload.App) *trace.Trace {
	if c, ok := workload.ByAbbr(app.Abbr); ok && c.Sets == app.Sets {
		return l.traces.Trace(app)
	}
	return app.Generate()
}

// mergeProbe folds one run's probe snapshot into the per-kind event totals.
func (l *local) mergeProbe(s *probe.Snapshot) {
	if s == nil {
		return
	}
	l.simMu.Lock()
	for _, k := range s.Kinds {
		l.simEvents[k.Kind] += k.Count
	}
	l.simMu.Unlock()
}

// Sweep simulates in-process, sharded across the suite's worker pool: the
// client's hint, capped by Workers.
func (l *local) Sweep(_ string, hint int) (func(context.Context, runspec.Spec, string) (hpe.Result, error), int) {
	if hint <= 0 || hint > l.cfg.Workers {
		hint = l.cfg.Workers
	}
	return nil, hint
}

func (l *local) Lookup(ctx context.Context, id string) (int, []byte, string, error) {
	return 0, nil, "", &Error{Status: http.StatusNotFound, Code: ErrNotFound,
		Msg: "unknown run id (results live in an LRU cache; re-POST the request to recompute)", RunID: id}
}

// List adds nothing: a single node's cache and coalescer are its inventory.
func (l *local) List(ctx context.Context, keep func(RunListEntry)) error { return nil }

func (l *local) Health() ([]byte, error) {
	body, err := json.Marshal(HealthBody{Status: "ok", Workers: l.cfg.Workers, Queue: l.cfg.QueueDepth})
	return append(body, '\n'), err
}

// RetryAfter estimates how long a rejected client should wait before the
// admission queue plausibly has room: the queued-plus-running backlog,
// divided across the worker pool, priced at the observed mean computation
// latency (1 s before any run has completed).
func (l *local) RetryAfter() float64 {
	queued, running := l.adm.Depths()
	mean := l.met.meanRunSeconds()
	if mean <= 0 {
		mean = 1
	}
	return math.Ceil(float64(queued+running+1) * mean / float64(l.cfg.Workers))
}

func (l *local) Metrics(p *promtext.Writer) {
	queued, running := l.adm.Depths()
	l.simMu.Lock()
	simEvents := maps.Clone(l.simEvents)
	l.simMu.Unlock()

	p.Gauge("hped_queue_depth", "Admitted computations waiting for a worker slot.", float64(queued))
	p.Gauge("hped_running", "Computations currently holding a worker slot.", float64(running))
	p.Counter("hped_queue_rejected_total",
		"Submissions refused with 429 because the admission queue was full.", l.adm.Rejected())
	p.LabelledCounter("hped_sim_events_total",
		"Simulator probe events aggregated across served runs, by kind.", simEvents, "kind")
}

func (l *local) Shutdown() string {
	queued, running := l.adm.Depths()
	return fmt.Sprintf("rejected %d, queued %d, running %d", l.adm.Rejected(), queued, running)
}
