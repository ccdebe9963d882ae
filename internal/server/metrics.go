package server

import (
	"context"
	"errors"
	"maps"
	"sync"
	"time"

	"hpe/internal/promtext"
	"hpe/internal/respcache"
	"hpe/internal/stats"
)

// serverMetrics aggregates the handler set's operational counters and
// latency histograms — the series every role exports under one name.
// Latencies land in internal/stats power-of-two histograms (observed in
// microseconds, exported in seconds). Role-specific families (queue gauges,
// simulator events, per-backend dispatch) are the Executor's to render.
type serverMetrics struct {
	mu sync.Mutex

	requests map[string]uint64 // guarded by mu; "route code" → count

	runsStarted   uint64 // guarded by mu
	runsCompleted uint64 // guarded by mu
	runsCancelled uint64 // guarded by mu
	runsFailed    uint64 // guarded by mu

	cachedLat stats.Histogram // guarded by mu; cache-hit responses, µs
	simLat    stats.Histogram // guarded by mu; leader runs, µs
	suiteLat  stats.Histogram // guarded by mu; suite sweeps, µs
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{requests: make(map[string]uint64)}
}

// observeRequest counts one HTTP response by route and status code.
func (m *serverMetrics) observeRequest(route string, code int) {
	m.mu.Lock()
	m.requests[route+" "+itoa(code)]++
	m.mu.Unlock()
}

func itoa(code int) string {
	// Status codes are three digits; avoid strconv on the request path.
	return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
}

// observeCachedHit records a cache-hit response latency.
func (m *serverMetrics) observeCachedHit(d time.Duration) {
	m.mu.Lock()
	m.cachedLat.Observe(uint64(d.Microseconds()))
	m.mu.Unlock()
}

// runStarted/runFinished bracket one leader computation (not coalesced
// waiters). cancelled marks runs stopped by context rather than completed.
func (m *serverMetrics) runStarted() {
	m.mu.Lock()
	m.runsStarted++
	m.mu.Unlock()
}

func (m *serverMetrics) runFinished(d time.Duration, err error, suite bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.runsCancelled++
		return
	case err != nil:
		m.runsFailed++
		return
	}
	m.runsCompleted++
	if suite {
		m.suiteLat.Observe(uint64(d.Microseconds()))
	} else {
		m.simLat.Observe(uint64(d.Microseconds()))
	}
}

// meanRunSeconds is the observed mean leader-computation latency across runs
// and sweeps, in seconds; 0 before anything has completed. The local
// executor prices its admission backlog with it.
func (m *serverMetrics) meanRunSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := m.simLat.Count() + m.suiteLat.Count()
	if count == 0 {
		return 0
	}
	return float64(m.simLat.Sum()+m.suiteLat.Sum()) / float64(count) * 1e-6
}

// render writes the shared families, combining the metrics' own state with
// the point-in-time cache and coalescer figures the Server passes in.
func (m *serverMetrics) render(p *promtext.Writer, cs respcache.Stats, coalesced uint64) {
	// Snapshot under the lock, render outside it: p writes to an HTTP
	// response, and a slow client scraping /metrics must not stall every
	// request-path counter update behind the socket write
	// (hpelint/lockorder).
	m.mu.Lock()
	requests := maps.Clone(m.requests)
	runsStarted, runsCompleted := m.runsStarted, m.runsCompleted
	runsCancelled, runsFailed := m.runsCancelled, m.runsFailed
	cachedLat, simLat, suiteLat := m.cachedLat, m.simLat, m.suiteLat
	m.mu.Unlock()

	p.LabelledCounter("hped_requests_total",
		"HTTP responses by route and status code.", requests, "route_code")
	p.Counter("hped_runs_started_total",
		"Leader computations started (coalesced waiters excluded).", runsStarted)
	p.Counter("hped_runs_completed_total",
		"Leader computations that ran to completion.", runsCompleted)
	p.Counter("hped_runs_cancelled_total",
		"Leader computations stopped early by cancellation.", runsCancelled)
	p.Counter("hped_runs_failed_total",
		"Leader computations that errored (including recovered panics).", runsFailed)
	p.Counter("hped_runs_coalesced_total",
		"Requests served by joining an identical in-flight computation.", coalesced)

	p.Counter("hped_cache_hits_total", "Result-cache hits.", cs.Hits)
	p.Counter("hped_cache_misses_total", "Result-cache misses.", cs.Misses)
	p.Counter("hped_cache_evictions_total", "Result-cache LRU evictions.", cs.Evictions)
	p.Gauge("hped_cache_bytes", "Bytes of response bodies held by the result cache.", float64(cs.Bytes))
	p.Gauge("hped_cache_entries", "Entries held by the result cache.", float64(cs.Entries))

	p.Histogram("hped_cached_hit_latency_seconds",
		"Latency of responses served from the result cache.", &cachedLat, 1e-6)
	p.Histogram("hped_run_latency_seconds",
		"Latency of single runs (leader computations).", &simLat, 1e-6)
	p.Histogram("hped_suite_latency_seconds",
		"Latency of suite sweeps (leader computations).", &suiteLat, 1e-6)
}
