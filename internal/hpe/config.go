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
// sensitivity studies (Figs. 7–8, §V-A) vary individual fields.
type Config struct {
	// Geometry defines the page-set size (default 16 pages).
	Geometry addrspace.Geometry
	// IntervalFaults is the interval length in page faults (default 64).
	IntervalFaults int
	// CounterCap is the page-set saturating counter limit (default 64,
	// i.e. 4× the page-set size).
	CounterCap int
	// Ratio1Threshold is the classification threshold on ratio₁ (default 0.3).
	Ratio1Threshold float64
	// Ratio2Threshold is the classification threshold on ratio₂ (default 2).
	Ratio2Threshold float64
	// FIFODepth is the per-strategy wrong-eviction buffer depth (default
	// 128 = two intervals of evictions).
	FIFODepth int
	// WrongEvictionThreshold triggers dynamic adjustment (default 16 = the
	// page-set size).
	WrongEvictionThreshold int
	// SearchJumpDistance is how far the MRU-C search point jumps on a
	// regular-application adjustment (default 16 page sets).
	SearchJumpDistance int
	// MinOldSetsForJump: regular applications whose old partition held fewer
	// sets than this when memory first filled never jump (default 64 = 4×
	// the page-set size).
	MinOldSetsForJump int
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

// DefaultConfig returns the paper's published parameter set (§V-A summary):
// page-set size 16, interval 64, ratio₁ threshold 0.3, FIFO depth 128,
// wrong-eviction threshold 16.
func DefaultConfig() Config {
	return ConfigForGeometry(addrspace.DefaultGeometry(), 64)
}

// ConfigForGeometry derives a config from a page-set geometry and interval
// length, scaling the dependent parameters the way the paper derives them:
// counter cap = 4× set size, FIFO depth = 2× interval, wrong-eviction
// threshold = set size, jump distance = 16, jump floor = 4× set size.
func ConfigForGeometry(g addrspace.Geometry, intervalFaults int) Config {
	setSize := g.SetSize()
	return Config{
		Geometry:               g,
		IntervalFaults:         intervalFaults,
		CounterCap:             4 * setSize,
		Ratio1Threshold:        0.3,
		Ratio2Threshold:        2.0,
		FIFODepth:              2 * intervalFaults,
		WrongEvictionThreshold: setSize,
		SearchJumpDistance:     16,
		MinOldSetsForJump:      4 * setSize,
		DynamicAdjustment:      true,
	}
}

func (c Config) validate() error {
	if c.IntervalFaults <= 0 {
		return fmt.Errorf("hpe: interval length %d must be positive", c.IntervalFaults)
	}
	if c.Geometry.SetSize() > 32 {
		return fmt.Errorf("hpe: set size %d above 32 (per-set page masks are 32-bit)", c.Geometry.SetSize())
	}
	if c.CounterCap < c.Geometry.SetSize() {
		return fmt.Errorf("hpe: counter cap %d below set size %d", c.CounterCap, c.Geometry.SetSize())
	}
	if c.FIFODepth <= 0 || c.WrongEvictionThreshold <= 0 {
		return fmt.Errorf("hpe: FIFO depth %d and wrong-eviction threshold %d must be positive",
			c.FIFODepth, c.WrongEvictionThreshold)
	}
	if c.SearchJumpDistance < 0 || c.MinOldSetsForJump < 0 {
		return fmt.Errorf("hpe: negative jump parameters")
	}
	if c.DivisionCounterThreshold < 0 || c.DivisionCounterThreshold > c.CounterCap {
		return fmt.Errorf("hpe: division threshold %d out of [0, %d]",
			c.DivisionCounterThreshold, c.CounterCap)
	}
	return nil
}

// divisionThreshold resolves the effective division-check counter value.
func (c Config) divisionThreshold() int {
	if c.DivisionCounterThreshold > 0 {
		return c.DivisionCounterThreshold
	}
	return c.CounterCap
}
