// Package hpe implements the paper's contribution: the Hierarchical Page
// Eviction policy (Section IV). HPE manages a software page-set chain with
// three recency partitions (old / middle / new), classifies the running
// application from page-set counter statistics, selects an eviction strategy
// per category (MRU-C for regular applications, LRU otherwise), and adjusts
// the strategy dynamically when wrong evictions accumulate. Page-walk hit
// information reaches it in batches drained from the HIR cache.
package hpe

import (
	"fmt"

	"hpe/internal/addrspace"
)

// Strategy names an eviction strategy within HPE.
type Strategy int

const (
	// StrategyLRU selects the least-recently-used page set (the chain head).
	StrategyLRU Strategy = iota
	// StrategyMRUC is MRU-counter-based selection: search from the MRU end
	// of the old partition for a set whose counter equals the page-set size,
	// falling back to the minimum-counter set.
	StrategyMRUC
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyLRU:
		return "LRU"
	case StrategyMRUC:
		return "MRU-C"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Category is the statistics-based application classification (Table III).
type Category int

const (
	// CategoryUnknown means classification has not happened yet (it runs
	// once, when the GPU memory first fills).
	CategoryUnknown Category = iota
	// CategoryRegular: most page sets have a small and regular counter.
	CategoryRegular
	// CategoryIrregular1: most page sets have a large and regular counter.
	CategoryIrregular1
	// CategoryIrregular2: most page sets have an irregular counter.
	CategoryIrregular2
)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case CategoryUnknown:
		return "unknown"
	case CategoryRegular:
		return "regular"
	case CategoryIrregular1:
		return "irregular#1"
	case CategoryIrregular2:
		return "irregular#2"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Config parameterises HPE. DefaultConfig returns the paper's defaults; the
// sensitivity studies (Figs. 7–8, §V-A) vary individual fields. Every other
// parameter follows from the page-set size and the interval length, the way
// the paper derives it (see the derived-parameter methods below).
type Config struct {
	// Geometry defines the page-set size (default 16 pages).
	Geometry addrspace.Geometry
	// IntervalFaults is the interval length in page faults (default 64).
	IntervalFaults int
	// DynamicAdjustment enables Algorithm 1 (default true; the sensitivity
	// studies of Figs. 7–8 run with it off).
	DynamicAdjustment bool
	// ManualStrategy, when non-nil, bypasses classification entirely and
	// pins the eviction strategy — the paper's sensitivity-test methodology
	// ("we turned off dynamic adjustment and selected an appropriate
	// eviction strategy for each application manually").
	ManualStrategy *Strategy
	// DisableDivision turns off page-set division (§IV-C) for ablation: the
	// NW-style even/odd sets stay whole and are evicted as one unit.
	DisableDivision bool
	// DivisionCounterThreshold is the saturating-counter value at which the
	// division check runs. 0 means the counter cap (the paper's default).
	// Lower values implement the paper's "relaxing the division requirement"
	// remark (§V-B): more sets divide, which the paper notes improves NW.
	DivisionCounterThreshold int
	// IdealHitFeed routes page-walk hits into the chain directly, without
	// HIR batching — the "ideal model where page walk hit information is
	// transferred to the GPU driver directly" used for the Figs. 7–8
	// sensitivity tests. The production configuration leaves this false and
	// feeds hits through OnHitBatch.
	IdealHitFeed bool
}

// The parameters the paper fixes outright: the classification thresholds
// of Table III and the MRU-C search-point jump of Algorithm 1.
const (
	ratio1Threshold    = 0.3
	ratio2Threshold    = 2.0
	searchJumpDistance = 16 // page sets
)

// DefaultConfig returns the paper's published parameter set (§V-A summary):
// page-set size 16, interval 64, so counter cap 64, FIFO depth 128 and
// wrong-eviction threshold 16.
func DefaultConfig() Config {
	return ConfigForGeometry(addrspace.DefaultGeometry(), 64)
}

// ConfigForGeometry returns the paper configuration for a page-set geometry
// and interval length, with dynamic adjustment on.
func ConfigForGeometry(g addrspace.Geometry, intervalFaults int) Config {
	return Config{Geometry: g, IntervalFaults: intervalFaults, DynamicAdjustment: true}
}

// counterCap is the page-set saturating counter limit: 4× the set size.
func (c Config) counterCap() int { return 4 * c.Geometry.SetSize() }

// fifoDepth is the per-strategy wrong-eviction buffer depth: two intervals
// of evictions.
func (c Config) fifoDepth() int { return 2 * c.IntervalFaults }

// wrongEvictionThreshold is the wrong-eviction count that triggers dynamic
// adjustment: the set size.
func (c Config) wrongEvictionThreshold() int { return c.Geometry.SetSize() }

// jumpFloor is the old-partition census below which a regular application
// never jumps its search point: 4× the set size.
func (c Config) jumpFloor() int { return 4 * c.Geometry.SetSize() }

func (c Config) validate() error {
	if c.IntervalFaults <= 0 {
		return fmt.Errorf("hpe: interval length %d must be positive", c.IntervalFaults)
	}
	if c.Geometry.SetSize() > 32 {
		return fmt.Errorf("hpe: set size %d above 32 (per-set page masks are 32-bit)", c.Geometry.SetSize())
	}
	if c.DivisionCounterThreshold < 0 || c.DivisionCounterThreshold > c.counterCap() {
		return fmt.Errorf("hpe: division threshold %d out of [0, %d]",
			c.DivisionCounterThreshold, c.counterCap())
	}
	return nil
}

// divisionThreshold resolves the effective division-check counter value.
func (c Config) divisionThreshold() int {
	if c.DivisionCounterThreshold > 0 {
		return c.DivisionCounterThreshold
	}
	return c.counterCap()
}
