package cluster

import "time"

// The saturation analyzer estimates each deployment's maximum sustainable
// request rate without load-testing it: every completed shard contributes an
// observed service time to its backend's EWMA, and a backend that reports W
// workers with a mean service time of s seconds can sustain ~W/s shards per
// second before its admission queue grows without bound. The cluster-wide
// figure is the sum over live backends — the rate at which the coordinator
// can accept work indefinitely. Both are exported on /metrics
// (hped_cluster_backend_capacity_rps, hped_cluster_capacity_rps) so capacity
// planning reads straight off the dashboard; a backend with no completed
// shard yet contributes 0 (unknown), making the estimate conservative during
// warm-up.

// Saturation is the analyzer's cluster-level output.
type Saturation struct {
	// PerBackend maps backend name to its estimated max sustainable shard
	// rate in runs/second; 0 while unknown (no shard observed yet).
	PerBackend map[string]float64
	// ClusterRPS is the sum over live backends.
	ClusterRPS float64
	// Live counts backends whose last health probe succeeded.
	Live int
}

// Saturation computes the current capacity estimate.
func (c *Coordinator) Saturation() Saturation {
	now := time.Now()
	sat := Saturation{PerBackend: make(map[string]float64, len(c.order))}
	for _, name := range c.order {
		s := c.backends[name].snapshot(now)
		sat.PerBackend[name] = s.CapacityRPS
		if s.Alive {
			sat.Live++
			sat.ClusterRPS += s.CapacityRPS
		}
	}
	return sat
}

// snapshots captures every backend's state in configuration order.
func (c *Coordinator) snapshots() []backendSnapshot {
	now := time.Now()
	out := make([]backendSnapshot, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.backends[name].snapshot(now))
	}
	return out
}
