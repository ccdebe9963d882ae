// Package server implements hped's serving core: the paper's simulator
// exposed as a long-running HTTP/JSON service. The serving triad —
// singleflight request coalescing, a content-addressed LRU result cache,
// and a bounded admission queue with backpressure — turns minutes of
// re-simulation into microsecond cache hits for the (app × policy ×
// oversubscription-rate) grids the related oversubscription-management
// literature sweeps, while context plumbing down to the event loop makes
// client disconnects, per-request timeouts, and graceful shutdown actually
// stop simulation work.
//
// Endpoints:
//
//	POST /v1/runs        submit a run spec (runspec.Spec wire form)
//	GET  /v1/runs        enumerate cached + in-flight run IDs (limit/after)
//	GET  /v1/runs/{id}   result (from cache) or in-flight status
//	POST /v1/suite       whole-matrix sweep through the experiment harness
//	GET  /v1/policies    the eviction-policy registry
//	GET  /v1/apps        the Table II workload catalog
//	GET  /v1/scenarios   the workload-v2 scenario presets (phases/tenants)
//	GET  /healthz        liveness (503 while draining; body carries capacity)
//	GET  /metrics        Prometheus text exposition
//
// This package owns the only /v1 handler set. It runs over an Executor — the
// role-specific half of an hped process: New mounts it over the local
// executor (admission queue + simulator), and the cluster coordinator mounts
// the same handlers over ring dispatch. Everything between the socket and
// the executor — decoding, content addressing, the result cache, coalescing,
// enumeration, drain, request counters and the error envelope — exists once.
//
// Run IDs are runspec content addresses (Spec.ID()), so identical requests —
// across clients, across restarts, across replicas, and across the suite and
// CLI layers that speak the same spec — share one ID, one simulation, and one
// cache entry, and byte-identical bodies are guaranteed by the simulator's
// determinism contract. Errors are typed envelopes (errors.go): every non-2xx
// JSON body is {"error":{"code","message","run_id?"}} with a machine-readable
// code from one closed vocabulary.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpe"
	"hpe/internal/experiments"
	"hpe/internal/flight"
	"hpe/internal/promtext"
	"hpe/internal/respcache"
	"hpe/internal/runspec"
)

// Executor is the role-specific half of an hped process. The handler set
// calls it only past the shared cache and coalescer, so every method runs
// for a leader computation or a request the shared state cannot answer.
// Failures that carry their own status and code return an *Error.
type Executor interface {
	// Admit claims capacity for one leader computation (a run or a sweep)
	// of id; release returns it.
	Admit(ctx context.Context, id string) (release func(), err error)
	// Run executes one canonical run spec and returns its RunResponse body.
	Run(ctx context.Context, sp runspec.Spec, id string) ([]byte, error)
	// Sweep supplies the per-cell runner of sweep id (nil simulates
	// in-process) and its worker count, given the client's parallelism hint
	// (0 = none).
	Sweep(id string, hint int) (runner func(context.Context, runspec.Spec, string) (hpe.Result, error), workers int)
	// Lookup answers GET /v1/runs/{id} for an id the shared cache and
	// coalescer do not hold, returning the status, body and X-Hped-Source.
	Lookup(ctx context.Context, id string) (status int, body []byte, source string, err error)
	// List feeds GET /v1/runs the entries held elsewhere.
	List(ctx context.Context, keep func(RunListEntry)) error
	// Health returns the /healthz body of a healthy, non-draining process.
	Health() ([]byte, error)
	// RetryAfter prices the backlog, in seconds, for 429/503 hints; the
	// handler set bounds it.
	RetryAfter() float64
	// Metrics writes the role's own /metrics families.
	Metrics(p *promtext.Writer)
	// Shutdown releases the executor once in-flight work has been cancelled
	// and returns the role's half of the final stats line.
	Shutdown() string
}

// Surface names what distinguishes one role's handler set.
type Surface struct {
	// Name is the subject of the draining envelope ("server" draining).
	Name string
	// Source is the X-Hped-Source of a freshly computed body.
	Source string
	// CacheBytes is the result cache's byte budget; negative disables it.
	CacheBytes int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the /v1 handler set over one Executor. Construct with New (a
// single simulating hped) or Mount; it is safe for concurrent use and is
// wired into an http.Server via Handler.
type Server struct {
	x          Executor
	sf         Surface
	baseCtx    context.Context
	baseCancel context.CancelFunc
	cache      *respcache.Cache
	co         *flight.Group
	met        *serverMetrics
	mux        *http.ServeMux
	draining   chan struct{} // closed by Drain
	drainOnce  sync.Once
}

// Mount builds the handler set over x.
func Mount(x Executor, sf Surface) *Server {
	//lint:ignore hpelint/ctxflow the daemon owns its lifecycle root; Close cancels it, and per-request contexts derive from it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		x:          x,
		sf:         sf,
		baseCtx:    ctx,
		baseCancel: cancel,
		cache:      respcache.New(sf.CacheBytes),
		co:         flight.NewGroup(),
		met:        newServerMetrics(),
		draining:   make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("POST /v1/suite", s.handleSuite)
	mux.HandleFunc("GET /v1/policies", s.handleCatalog("policies", policiesBody))
	mux.HandleFunc("GET /v1/apps", s.handleCatalog("apps", appsBody))
	mux.HandleFunc("GET /v1/scenarios", s.handleCatalog("scenarios", scenariosBody))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into draining mode: health checks fail (so load
// balancers stop routing here) and new submissions are refused with 503,
// while requests already in flight run to completion.
func (s *Server) Drain() { s.drainOnce.Do(func() { close(s.draining) }) }

// isDraining reports whether Drain has been called.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Close drains the server, cancels every computation still running (their
// engines stop at the next cancellation poll), shuts the executor down, and
// returns a final stats summary for logging — the flush-on-shutdown line.
func (s *Server) Close() string {
	s.Drain()
	s.baseCancel()
	cs := s.cache.Snapshot()
	return fmt.Sprintf("cache: %d entries, %d/%d bytes, %d hits, %d misses, %d evictions; coalesced %d, %s",
		cs.Entries, cs.Bytes, cs.Budget, cs.Hits, cs.Misses, cs.Evictions, s.co.Coalesced(), s.x.Shutdown())
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.sf.Logf != nil {
		s.sf.Logf(format, args...)
	}
}

// --- response plumbing ---------------------------------------------------

// statusClientGone is nginx's convention for "client closed request"; the
// client is not listening, but the code keeps the metrics honest.
const statusClientGone = 499

func (s *Server) writeBody(w http.ResponseWriter, route string, code int, source string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if source != "" {
		w.Header().Set("X-Hped-Source", source)
	}
	w.WriteHeader(code)
	w.Write(body)
	s.met.observeRequest(route, code)
}

// writeError emits one typed error envelope (errors.go). 429 and 503
// responses carry the executor's Retry-After hint, so backpressured clients
// pace themselves instead of guessing.
func (s *Server) writeError(w http.ResponseWriter, route string, status int, code ErrorCode, msg, runID string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(clampRetryAfter(s.x.RetryAfter())))
	}
	WriteError(w, status, code, msg, runID)
	s.met.observeRequest(route, status)
}

// writeFailure maps a failure to its envelope: an executor's *Error carries
// its own status and code; anything else is the server's fault.
func (s *Server) writeFailure(w http.ResponseWriter, route string, err error) {
	var xe *Error
	if errors.As(err, &xe) {
		s.writeError(w, route, xe.Status, xe.Code, xe.Msg, xe.RunID)
		return
	}
	s.writeError(w, route, http.StatusInternalServerError, ErrInternal, err.Error(), "")
}

// clampRetryAfter bounds a Retry-After estimate to [1, 300] whole seconds.
func clampRetryAfter(sec float64) int {
	return int(min(max(sec, 1), 300))
}

// decodeJSON reads a bounded request body with unknown fields rejected —
// a typoed option silently dropped would alias distinct requests onto one
// content address.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- run submission ------------------------------------------------------

// RunResponse is the body of a completed run: the ID, the canonicalized
// spec it addresses, and the full simulation result. The cluster coordinator
// decodes it when merging remote shards, so it is part of the wire contract.
type RunResponse struct {
	ID      string      `json:"id"`
	Request hpe.RunSpec `json:"request"`
	Result  hpe.Result  `json:"result"`
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	const route = "run_submit"
	if s.isDraining() {
		s.writeError(w, route, http.StatusServiceUnavailable, ErrDraining, s.sf.Name+" draining", "")
		return
	}
	// The wire form IS the canonical run spec: bounded body, unknown fields
	// rejected, canonicalized on decode, content-addressed by Spec.ID().
	sp, err := runspec.Decode(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, "bad request body: "+err.Error(), "")
		return
	}
	// A trace-file source reads the serving host's filesystem, and the file's
	// content is not part of the spec's content address — two backends could
	// cache different results under one ID. Replay trace files locally.
	if strings.HasPrefix(sp.App, "trace:") {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec,
			"trace-file workload sources are not servable; replay them with hpesim", "")
		return
	}
	id := sp.ID()
	if body, ok := s.cached(id); ok {
		s.writeBody(w, route, http.StatusOK, "cache", body)
		return
	}
	s.serveComputed(w, r, route, id, specSummary(sp), false, true, func(ctx context.Context) ([]byte, error) {
		return s.x.Run(ctx, sp, id)
	})
}

// cached looks id up in the result cache, timing hits for the cached-hit
// latency histogram. Handlers call it before building any per-request
// closure, so a hit allocates nothing beyond the response itself.
func (s *Server) cached(id string) ([]byte, bool) {
	start := time.Now()
	body, ok := s.cache.Get(id)
	if ok {
		s.met.observeCachedHit(time.Since(start))
	}
	return body, ok
}

// serveComputed is the shared coalesce → admit → compute → cache path for
// runs and suite sweeps on a cache miss. summary labels the computation in
// GET /v1/runs for exactly as long as the coalescer or the cache holds it.
// A body that is not a pure function of id (cacheable false) is coalesced
// but never cached: the cache serves old bytes as the truth of an ID.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, route, id, summary string,
	suite, cacheable bool, compute func(context.Context) ([]byte, error)) {
	body, coalesced, err := s.co.Do(r.Context(), s.baseCtx, id, summary, func(ctx context.Context) ([]byte, error) {
		release, err := s.x.Admit(ctx, id)
		if err != nil {
			return nil, err
		}
		defer release()
		s.met.runStarted()
		t0 := time.Now()
		body, err := compute(ctx)
		s.met.runFinished(time.Since(t0), err, suite)
		if err != nil {
			return nil, err
		}
		if cacheable {
			s.cache.Put(id, body, summary)
		}
		return body, nil
	})
	source := s.sf.Source
	if coalesced {
		source = "coalesce"
	}
	var xe *Error
	switch {
	case err == nil:
		s.writeBody(w, route, http.StatusOK, source, body)
	case errors.As(err, &xe):
		s.writeError(w, route, xe.Status, xe.Code, xe.Msg, xe.RunID)
	case r.Context().Err() != nil:
		// The client went away; nobody reads this, but the metrics do.
		s.writeError(w, route, statusClientGone, ErrClientGone, "client disconnected", id)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, route, http.StatusServiceUnavailable, ErrCancelled,
			"computation cancelled: "+err.Error(), id)
	default:
		s.logf("hped: %s %s failed: %v", route, id, err)
		s.writeError(w, route, http.StatusInternalServerError, ErrInternal,
			"computation failed: "+err.Error(), id)
	}
}

// --- run status ----------------------------------------------------------

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	const route = "run_get"
	id := r.PathValue("id")
	if body, ok := s.cached(id); ok {
		s.writeBody(w, route, http.StatusOK, "cache", body)
		return
	}
	if waiters, running := s.co.Inflight(id); running {
		body, _ := json.Marshal(map[string]any{"id": id, "status": "running", "waiters": waiters})
		s.writeBody(w, route, http.StatusAccepted, "", append(body, '\n'))
		return
	}
	status, body, source, err := s.x.Lookup(r.Context(), id)
	if err != nil {
		s.writeFailure(w, route, err)
		return
	}
	if status == http.StatusOK {
		s.cache.Put(id, body, "")
	}
	s.writeBody(w, route, status, source, body)
}

// --- suite sweeps --------------------------------------------------------

// suiteReport is one experiment's JSON form. Metrics that JSON cannot carry
// are clamped (±Inf → ±MaxFloat64) or dropped (NaN) with the rewrite
// recorded in Clamped, by the same Report.JSONMetrics as hpebench -json.
type suiteReport struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Text    string             `json:"text"`
	Metrics map[string]float64 `json:"metrics"`
	Clamped map[string]string  `json:"clamped,omitempty"`
}

type suiteResponse struct {
	ID      string        `json:"id"`
	Request SuiteRequest  `json:"request"`
	Reports []suiteReport `json:"reports"`
}

// renderSuiteBody renders the canonical /v1/suite response body for a
// normalized request and its reports. Every role renders through it, which
// is what makes a coordinator sweep byte-identical to a single-node one.
func renderSuiteBody(id string, req SuiteRequest, reports []hpe.Report) ([]byte, error) {
	out := suiteResponse{ID: id, Request: req, Reports: make([]suiteReport, len(reports))}
	for i, rep := range reports {
		metrics, clamped := rep.JSONMetrics()
		out.Reports[i] = suiteReport{ID: rep.ID, Title: rep.Title, Text: rep.Text,
			Metrics: metrics, Clamped: clamped}
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("render reports: %w", err)
	}
	return append(body, '\n'), nil
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	const route = "suite_submit"
	if s.isDraining() {
		s.writeError(w, route, http.StatusServiceUnavailable, ErrDraining, s.sf.Name+" draining", "")
		return
	}
	var req SuiteRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, "bad request body: "+err.Error(), "")
		return
	}
	id, err := normalizeSuite(&req)
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, err.Error(), "")
		return
	}
	if body, ok := s.cached(id); ok {
		s.writeBody(w, route, http.StatusOK, "cache", body)
		return
	}
	hint := req.Workers
	req.Workers = 0 // scheduling hint: kept out of the cached body
	summary := fmt.Sprintf("%d experiments, quick=%t, seed=%d", len(req.IDs), req.Quick, req.Seed)
	// A host-timed experiment (overhead's measured microseconds) makes the
	// body differ run to run, so it must not be served as the ID's bytes.
	cacheable := !slices.ContainsFunc(req.IDs, func(id string) bool { return !experiments.Deterministic(id) })
	s.serveComputed(w, r, route, id, summary, true, cacheable, func(ctx context.Context) ([]byte, error) {
		return s.sweepSuite(ctx, req, id, hint)
	})
}

// sweepSuite runs a whole-matrix sweep through the experiment harness under
// the request's context, with the executor's per-cell runner and worker
// count. The suite plans the union of the requested experiments' cells and
// hands it to the runner in one pool; the first runner error cancels the
// rest and is the sweep's error, so a partial sweep is never rendered.
func (s *Server) sweepSuite(ctx context.Context, req SuiteRequest, id string, hint int) ([]byte, error) {
	runner, workers := s.x.Sweep(id, hint)
	reports, err := hpe.NewSuite(hpe.SuiteOptions{Quick: req.Quick, Seed: req.Seed, Workers: workers,
		Context: ctx, Runner: runner}).Reports(req.IDs)
	if err != nil {
		return nil, err
	}
	return renderSuiteBody(id, req, reports)
}

// --- catalog endpoints ---------------------------------------------------

// The catalogs are compiled into every hped binary, so each role serves the
// identical bytes locally.

type policyJSON struct {
	Name          string   `json:"name"`
	Display       string   `json:"display"`
	Description   string   `json:"description"`
	Aliases       []string `json:"aliases,omitempty"`
	NeedsCapacity bool     `json:"needs_capacity,omitempty"`
	NeedsTrace    bool     `json:"needs_trace,omitempty"`
	NeedsHIR      bool     `json:"needs_hir,omitempty"`
}

// policiesBody renders the /v1/policies catalog body.
func policiesBody() []byte {
	infos := hpe.Policies()
	out := make([]policyJSON, len(infos))
	for i, info := range infos {
		out[i] = policyJSON{Name: info.Name, Display: info.Display,
			Description: info.Description, Aliases: info.Aliases,
			NeedsCapacity: info.NeedsCapacity, NeedsTrace: info.NeedsTrace,
			NeedsHIR: info.NeedsHIR}
	}
	body, _ := json.Marshal(out)
	return append(body, '\n')
}

type appJSON struct {
	Name           string `json:"name"`
	Abbr           string `json:"abbr"`
	Suite          string `json:"suite"`
	Pattern        string `json:"pattern"`
	Pages          int    `json:"pages"`
	FootprintBytes uint64 `json:"footprint_bytes"`
	ComputeGap     int    `json:"compute_gap"`
}

// appsBody renders the /v1/apps catalog body.
func appsBody() []byte {
	apps := hpe.Workloads()
	out := make([]appJSON, len(apps))
	for i, a := range apps {
		out[i] = appJSON{Name: a.Name, Abbr: a.Abbr, Suite: a.Suite,
			Pattern: a.Pattern.String(), Pages: a.Pages(),
			FootprintBytes: a.FootprintBytes(), ComputeGap: a.ComputeGap}
	}
	body, _ := json.Marshal(out)
	return append(body, '\n')
}

// scenariosBody renders the /v1/scenarios catalog body: the named
// workload-v2 presets, ready to paste into a run spec's phases/tenants
// fields.
func scenariosBody() []byte {
	body, _ := json.Marshal(hpe.Scenarios())
	return append(body, '\n')
}

func (s *Server) handleCatalog(route string, render func() []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.writeBody(w, route, http.StatusOK, "", render())
	}
}

// --- health and metrics --------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	const route = "healthz"
	if s.isDraining() {
		s.writeError(w, route, http.StatusServiceUnavailable, ErrDraining, "draining", "")
		return
	}
	body, err := s.x.Health()
	if err != nil {
		s.writeFailure(w, route, err)
		return
	}
	s.writeBody(w, route, http.StatusOK, "", body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	p := promtext.New(w)
	s.met.render(p, s.cache.Snapshot(), s.co.Coalesced())
	s.x.Metrics(p)
	s.met.observeRequest("metrics", http.StatusOK)
}
