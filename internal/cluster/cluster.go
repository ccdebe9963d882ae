// Package cluster implements hped's coordinator: one process that owns the
// public /v1 surface and partitions work across N hped backends by
// consistent-hashing each run's content address. The coordinator is not a
// dumb proxy — it runs the experiment harness locally (aggregation, report
// rendering, canonical ordering) and delegates only the simulations, each
// shard travelling to the backend owning its Spec.ID() — or, while that
// owner is busy, to an idle backend — over the exact wire forms a single
// hped speaks. Determinism is what makes the architecture
// sound: any backend's answer for a shard is THE answer, so a merged sweep
// is byte-identical to a single-node run, a restarted backend re-owns its
// old shards, and a dead backend's shards fall through to the next backend
// on the ring with no reconciliation protocol.
//
// This package defines no HTTP handlers: a Coordinator is internal/server's
// /v1 handler set mounted over a ring executor, so the routes, cache,
// coalescer, enumeration, drain and error envelope are the backend's own
// code. The executor contributes ring dispatch, health checking and circuit
// breaking, and cluster-level /metrics: per-backend liveness, breaker state,
// shard, spill and re-dispatch counters, and the saturation analyzer's
// max-sustainable-rate estimates. See DESIGN.md §13.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hpe"
	"hpe/internal/promtext"
	"hpe/internal/runspec"
	"hpe/internal/server"
)

// ringVNodes is the number of virtual ring points per backend.
const ringVNodes = 64

// Config sizes the coordinator.
type Config struct {
	// Backends are the base URLs of the hped instances to shard across
	// (e.g. "http://10.0.0.1:8080"). Required, at least one.
	Backends []string
	// HealthInterval is the /healthz polling period; defaults to 2s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe; defaults to 1s.
	HealthTimeout time.Duration
	// MaxAttempts is how many ring-walk rounds one shard gets before the
	// coordinator gives up with backend_unavailable; defaults to 4.
	MaxAttempts int
	// BackoffBase/BackoffMax bound the deterministic exponential backoff
	// between dispatch rounds; default 100ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker; defaults to 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses shards before one
	// half-open probe is allowed; defaults to 5s.
	BreakerCooldown time.Duration
	// CacheBytes is the coordinator's merged-result cache budget; defaults
	// to 256 MiB. Negative disables caching.
	CacheBytes int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
}

// Coordinator fronts a set of hped backends: the shared /v1 handler set
// (embedded, for Handler, Drain and Close) over the ring executor below.
// Construct with New; it is safe for concurrent use.
type Coordinator struct {
	*server.Server

	cfg        Config
	baseCtx    context.Context // the health loop's lifetime
	baseCancel context.CancelFunc
	ring       *ring
	order      []string            // backend names, configuration order (immutable)
	backends   map[string]*backend // immutable map; each backend locks itself
	client     *http.Client
	met        *clusterMetrics
	healthDone chan struct{} // closed when the health loop exits
}

// New builds a Coordinator, performs one synchronous health round (so the
// first request sees real liveness, not a cold default), and starts the
// background health loop.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b == "" || seen[b] {
			return nil, fmt.Errorf("cluster: empty or duplicate backend %q", b)
		}
		seen[b] = true
	}
	//lint:ignore hpelint/ctxflow the coordinator owns its lifecycle root; Close cancels it, and the health loop derives from it
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		ring:       newRing(cfg.Backends, ringVNodes),
		order:      cfg.Backends,
		backends:   make(map[string]*backend, len(cfg.Backends)),
		client:     &http.Client{},
		met:        newClusterMetrics(),
		healthDone: make(chan struct{}),
	}
	for _, name := range cfg.Backends {
		c.backends[name] = newBackend(name, cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	c.Server = server.Mount((*executor)(c), server.Surface{
		Name: "coordinator", Source: "dispatch", CacheBytes: cfg.CacheBytes, Logf: cfg.Logf})

	c.CheckHealth(ctx)
	go c.healthLoop()
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// --- health checking -----------------------------------------------------

// healthLoop polls every backend until Close.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.CheckHealth(c.baseCtx)
		}
	}
}

// CheckHealth performs one synchronous health round over all backends,
// updating liveness and capacity. Exported so tests (and the coordinator's
// own startup) can force a round instead of waiting out the interval.
func (c *Coordinator) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, name := range c.order {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			c.probeBackend(ctx, b)
		}(c.backends[name])
	}
	wg.Wait()
}

// probeBackend runs one GET /healthz against one backend.
func (c *Coordinator) probeBackend(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.name+"/healthz", nil)
	if err != nil {
		b.setHealth(false, 0, 0)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		b.setHealth(false, 0, 0)
		return
	}
	defer resp.Body.Close()
	var hb server.HealthBody
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(resp.Body).Decode(&hb) != nil || hb.Status != "ok" {
		b.setHealth(false, 0, 0)
		return
	}
	b.setHealth(true, hb.Workers, hb.Queue)
}

// liveBackends returns the names of backends whose last probe succeeded, in
// configuration order.
func (c *Coordinator) liveBackends() []string {
	out := make([]string, 0, len(c.order))
	for _, name := range c.order {
		if c.backends[name].isAlive() {
			out = append(out, name)
		}
	}
	return out
}

// --- the ring executor ---------------------------------------------------

// executor is the Coordinator seen as the handler set's server.Executor. The
// conversion keeps the executor's methods off the Coordinator's public API.
type executor Coordinator

// Admit claims nothing: concurrency is bounded per backend by the dispatch
// windows, inside Run.
func (x *executor) Admit(ctx context.Context, id string) (func(), error) {
	return func() {}, nil
}

// Run dispatches one run spec along its content address's ring sequence
// (idle-first, then owner-first) and returns the answering backend's
// RunResponse body verbatim.
func (x *executor) Run(ctx context.Context, sp runspec.Spec, id string) ([]byte, error) {
	body, _, err := x.dispatch(ctx, sp, id, id)
	return body, err
}

// dispatch runs shard on the cluster for the request reqID (the run
// itself, or the sweep it is a cell of) and returns the RunResponse body and
// its decoded Result. A backend's own 4xx comes back as its relayed
// envelope; exhausting the ring is backend_unavailable.
func (x *executor) dispatch(ctx context.Context, sp runspec.Spec, shard, reqID string) ([]byte, hpe.Result, error) {
	c := (*Coordinator)(x)
	body, res, err := c.dispatchRun(ctx, sp, shard)
	var xe *server.Error
	switch {
	case err == nil, errors.As(err, &xe),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return body, res, err
	}
	return nil, hpe.Result{}, x.unavailable(reqID, err)
}

func (x *executor) unavailable(reqID string, err error) error {
	(*Coordinator)(x).logf("coordinator: %s failed: %v", reqID, err)
	return &server.Error{Status: http.StatusServiceUnavailable, Code: server.ErrBackendUnavailable,
		Msg: "no backend could run this shard: " + err.Error(), RunID: reqID}
}

// Sweep keeps the experiment harness local and delegates every cell of the
// sweep id: each cell's content-addressed spec is consistent-hashed to a
// backend, and the handler set's suite aggregates and renders the returned
// results exactly as a single node would. The client's parallelism hint is
// ignored — scheduling is the coordinator's: enough concurrent shards to fill
// every live backend's window (workers + queue) without tripping 429s.
func (x *executor) Sweep(id string, _ int) (func(context.Context, runspec.Spec, string) (hpe.Result, error), int) {
	workers := 0
	for _, s := range (*Coordinator)(x).snapshots() {
		if s.Alive {
			workers += s.Workers + s.Queue
		}
	}
	workers = max(workers, 4)
	return func(ctx context.Context, sp runspec.Spec, rid string) (hpe.Result, error) {
		_, res, err := x.dispatch(ctx, sp, rid, id)
		return res, err
	}, workers
}

// Lookup walks the id's preference sequence, then any other live backend
// (the id may predate a ring change). The first cached or in-flight answer
// wins, with the answering backend as its source.
func (x *executor) Lookup(ctx context.Context, id string) (int, []byte, string, error) {
	c := (*Coordinator)(x)
	tried := make(map[string]bool)
	for _, name := range append(c.ring.sequence(id), c.liveBackends()...) {
		if tried[name] {
			continue
		}
		tried[name] = true
		if !c.backends[name].usable(time.Now()) {
			continue
		}
		status, body, err := c.proxyGet(ctx, name, "/v1/runs/"+id)
		if err != nil || status == http.StatusNotFound {
			continue
		}
		return status, body, name, nil
	}
	return 0, nil, "", &server.Error{Status: http.StatusNotFound, Code: server.ErrNotFound,
		Msg: "no backend holds this run (results live in LRU caches; re-POST the request to recompute)", RunID: id}
}

// ClusterHealthBody is the coordinator's /healthz response.
type ClusterHealthBody struct {
	Status   string `json:"status"`
	Backends int    `json:"backends"`
	Live     int    `json:"live"`
	// Workers is the summed simulation capacity of the live backends.
	Workers int `json:"workers"`
}

func (x *executor) Health() ([]byte, error) {
	c := (*Coordinator)(x)
	hb := ClusterHealthBody{Status: "ok", Backends: len(c.order)}
	for _, s := range c.snapshots() {
		if s.Alive {
			hb.Live++
			hb.Workers += s.Workers
		}
	}
	if hb.Live == 0 {
		return nil, &server.Error{Status: http.StatusServiceUnavailable,
			Code: server.ErrBackendUnavailable, Msg: "no live backends"}
	}
	body, err := json.Marshal(hb)
	return append(body, '\n'), err
}

// RetryAfter prices the cluster's backlog: total in-flight shards across
// backends, divided by the cluster's estimated capacity.
func (x *executor) RetryAfter() float64 {
	c := (*Coordinator)(x)
	sat := c.Saturation()
	if sat.ClusterRPS <= 0 {
		return 1
	}
	inflight := 0
	for _, s := range c.snapshots() {
		inflight += s.Inflight
	}
	return float64(inflight+1) / sat.ClusterRPS
}

func (x *executor) Metrics(p *promtext.Writer) {
	c := (*Coordinator)(x)
	c.met.render(p, c.snapshots(), c.Saturation())
}

// Shutdown stops the health loop once the handler set has cancelled
// in-flight dispatches.
func (x *executor) Shutdown() string {
	c := (*Coordinator)(x)
	c.baseCancel()
	<-c.healthDone
	sat := c.Saturation()
	return fmt.Sprintf("%d/%d backends live, %.2f rps capacity, spilled %d, redispatched %d",
		sat.Live, len(c.order), sat.ClusterRPS, c.met.spillCount(), c.met.redispatchCount())
}

// proxyGet performs one GET against one backend and returns status + body.
func (c *Coordinator) proxyGet(ctx context.Context, name, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := readAllLimited(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}
