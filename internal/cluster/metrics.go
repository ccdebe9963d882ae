package cluster

import (
	"maps"
	"sync"
	"time"

	"hpe/internal/promtext"
	"hpe/internal/stats"
)

// clusterMetrics aggregates the coordinator-only counters: shard dispatch
// outcomes per backend, spills, re-dispatches, and the shard service-latency
// histogram the saturation analyzer cross-checks. The serving series every
// role shares (requests, cache, coalescing) belong to the handler set.
type clusterMetrics struct {
	mu sync.Mutex

	shards map[string]uint64 // guarded by mu; backend → shards completed

	spilled      uint64          // guarded by mu; shards placed past a usable but busy owner
	redispatched uint64          // guarded by mu; attempts past an unusable owner, or after a failed attempt
	shardLat     stats.Histogram // guarded by mu; shard round-trip, µs
}

func newClusterMetrics() *clusterMetrics {
	return &clusterMetrics{shards: make(map[string]uint64)}
}

// shardDone records one shard served by the named backend.
func (m *clusterMetrics) shardDone(backend string, d time.Duration) {
	m.mu.Lock()
	m.shards[backend]++
	m.shardLat.Observe(uint64(d.Microseconds()))
	m.mu.Unlock()
}

// spill counts one shard sent past its usable but busy owner to a backend
// with an idle worker — idle-first placement in action.
func (m *clusterMetrics) spill() {
	m.mu.Lock()
	m.spilled++
	m.mu.Unlock()
}

// spillCount returns the spill counter (tests).
func (m *clusterMetrics) spillCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.spilled
}

// redispatch counts one shard attempt that is not its first-choice
// placement: past a dead or broken owner, or after a failed attempt — the
// ring-walk fallback in action.
func (m *clusterMetrics) redispatch() {
	m.mu.Lock()
	m.redispatched++
	m.mu.Unlock()
}

// redispatchCount returns the redispatch counter (tests).
func (m *clusterMetrics) redispatchCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.redispatched
}

// render writes the coordinator-only families: the metrics' own counters
// plus the point-in-time backend and saturation figures the Coordinator
// passes in.
func (m *clusterMetrics) render(p *promtext.Writer, snaps []backendSnapshot, sat Saturation) {
	// Snapshot under the lock, render outside it: p writes to an HTTP
	// response, and a slow scraper must not stall shard-dispatch bookkeeping
	// behind the socket write (hpelint/lockorder).
	m.mu.Lock()
	shards := maps.Clone(m.shards)
	spilled, redispatched := m.spilled, m.redispatched
	shardLat := m.shardLat
	m.mu.Unlock()

	p.LabelledCounter("hped_cluster_shards_total",
		"Shards completed, by owning backend.", shards, "backend")
	p.Counter("hped_cluster_spilled_total",
		"Shards placed past a usable but busy owner on a backend with an idle worker.",
		spilled)
	p.Counter("hped_cluster_redispatched_total",
		"Shard attempts routed past a dead or breaker-open owner, or retried after a failed attempt.",
		redispatched)

	up := make(map[string]float64, len(snaps))
	open := make(map[string]float64, len(snaps))
	workers := make(map[string]float64, len(snaps))
	inflight := make(map[string]float64, len(snaps))
	dispatched := make(map[string]uint64, len(snaps))
	failures := make(map[string]uint64, len(snaps))
	breakerOpens := make(map[string]uint64, len(snaps))
	capacity := make(map[string]float64, len(snaps))
	for _, s := range snaps {
		up[s.Name] = b2f(s.Alive)
		open[s.Name] = b2f(s.BreakerOpen)
		workers[s.Name] = float64(s.Workers)
		inflight[s.Name] = float64(s.Inflight)
		dispatched[s.Name] = s.Dispatched
		failures[s.Name] = s.Failures
		breakerOpens[s.Name] = s.BreakerOpens
		capacity[s.Name] = s.CapacityRPS
	}
	p.LabelledGauge("hped_cluster_backend_up",
		"1 when the backend's last health probe succeeded.", up, "backend")
	p.LabelledGauge("hped_cluster_backend_breaker_open",
		"1 while the backend's circuit breaker refuses shards.", open, "backend")
	p.LabelledGauge("hped_cluster_backend_workers",
		"Simulation workers the backend reported on /healthz.", workers, "backend")
	p.LabelledGauge("hped_cluster_backend_inflight_shards",
		"Shards currently dispatched to the backend.", inflight, "backend")
	p.LabelledCounter("hped_cluster_backend_dispatch_failures_total",
		"Dispatch failures charged to the backend's breaker.", failures, "backend")
	p.LabelledCounter("hped_cluster_backend_breaker_opens_total",
		"Closed-to-open breaker transitions per backend.", breakerOpens, "backend")
	p.LabelledCounter("hped_cluster_backend_shards_done_total",
		"Shards the backend completed (breaker-level view).", dispatched, "backend")

	// The saturation analyzer's output: per-backend and whole-cluster max
	// sustainable request rate, from observed service times and reported
	// worker counts.
	p.LabelledGauge("hped_cluster_backend_capacity_rps",
		"Estimated max sustainable shard rate of the backend (workers / EWMA service seconds).",
		capacity, "backend")
	p.Gauge("hped_cluster_capacity_rps",
		"Estimated max sustainable shard rate of the whole cluster (sum over live backends).",
		sat.ClusterRPS)
	p.Gauge("hped_cluster_backends_live",
		"Backends whose last health probe succeeded.", float64(sat.Live))

	p.Histogram("hped_cluster_shard_latency_seconds",
		"Round-trip latency of one shard dispatched to a backend.", &shardLat, 1e-6)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
