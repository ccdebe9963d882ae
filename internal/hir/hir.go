// Package hir implements the Hit Information Record cache of Section IV-B:
// a small set-associative cache beside the GPU's page-table walker that
// records page-walk *hits* per page set. Its contents are drained to the GPU
// driver every nth page fault (the transfer interval) to update HPE's page
// set chain; between drains it is the only channel through which HPE learns
// about hits, in contrast to the baselines' "ideal model" feed.
//
// Each entry holds the page-set tag plus one 2-bit saturating counter per
// page of the set, as in the paper's costing: a 16-page set needs 32 bits
// of data, so an entry is 80 bits and the default 1024-entry HIR costs
// 10 KB. The counters of an entry, and of a drained Record, are packed in
// one 64-bit word, so sets of up to 32 pages fit. A first-touch order
// vector preserves a relaxed reference order across the drain.
package hir

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/probe"
	"hpe/internal/sim"
)

// Config sizes the HIR cache.
type Config struct {
	// Entries is the total entry count (paper default: 1024).
	Entries int
	// Ways is the associativity (paper default: 8).
	Ways int
	// Geometry supplies the page-set arithmetic.
	Geometry addrspace.Geometry
}

// CounterBits is the per-page counter width (the paper's 2 bits); a
// counter saturates at maxCount.
const (
	CounterBits = 2
	maxCount    = 1<<CounterBits - 1
)

// DefaultConfig returns the paper's HIR configuration: 1024 entries, 8-way,
// over 16-page sets.
func DefaultConfig() Config {
	return Config{Entries: 1024, Ways: 8, Geometry: addrspace.DefaultGeometry()}
}

// Record is one drained HIR entry: the page set and the per-page hit counts
// accumulated since the previous drain. Counts packs them CounterBits per
// page offset, offset 0 in the low bits; read one with Count.
type Record struct {
	Set    addrspace.SetID
	Counts uint64
}

// Count returns the hit count of page offset off.
func (r Record) Count(off int) int { return int(r.Counts >> (off * CounterBits) & maxCount) }

// A hirEntry is valid while its counts are nonzero: a set enters the
// cache with its first hit counted.
type hirEntry struct {
	tag    addrspace.SetID
	counts uint64 // as Record.Counts
}

// Cache is the HIR cache. Not safe for concurrent use; the simulator is
// single-threaded per run.
type Cache struct {
	cfg     Config
	rows    int
	entries []hirEntry

	// touchOrder records (row, way) pairs in first-touch order since the
	// last drain — the paper's order vector.
	touchOrder []int

	// Instrumentation (nil unless SetProbe was called): the cache has no
	// clock of its own, so the simulator also supplies its time source.
	probe probe.Probe
	now   func() sim.Cycle

	// Stats.
	hitsRecorded  uint64
	conflicts     uint64 // hits dropped because the row was full
	drains        uint64
	drainedTotal  uint64 // sum of entries transferred across drains
	nonEmpty      uint64 // drains that moved at least one entry
	drainedMax    int
	drainedCounts []int // per-drain entry counts (Fig. 15 data)
}

// New returns an empty HIR cache.
func New(cfg Config) *Cache {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("hir: bad geometry entries=%d ways=%d", cfg.Entries, cfg.Ways))
	}
	if n := cfg.Geometry.SetSize(); n*CounterBits > 64 {
		panic(fmt.Sprintf("hir: %d-page sets need %d counter bits, an entry holds 64", n, n*CounterBits))
	}
	return &Cache{
		cfg:     cfg,
		rows:    cfg.Entries / cfg.Ways,
		entries: make([]hirEntry, cfg.Entries),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetProbe attaches an instrumentation probe with its time source (the
// simulation engine's clock). Passing a nil probe detaches.
func (c *Cache) SetProbe(p probe.Probe, now func() sim.Cycle) {
	c.probe = p
	c.now = now
}

// RecordHit records a page-walk hit for page p. On a way conflict (the row
// is full of other tags) the hit is dropped and counted — the paper's
// "some pages' information may be lost".
func (c *Cache) RecordHit(p addrspace.PageID) {
	set := c.cfg.Geometry.SetOf(p)
	shift := c.cfg.Geometry.Offset(p) * CounterBits
	row := int(uint64(set) % uint64(c.rows))
	base := row * c.cfg.Ways
	free := -1
	for w := 0; w < c.cfg.Ways; w++ {
		e := &c.entries[base+w]
		if e.counts != 0 && e.tag == set {
			if e.counts>>shift&maxCount < maxCount {
				e.counts += 1 << shift
			}
			c.hitsRecorded++
			return
		}
		if e.counts == 0 && free < 0 {
			free = base + w
		}
	}
	if free < 0 {
		c.conflicts++
		if c.probe != nil {
			c.probe.Emit(probe.HIRConflict(c.now(), p))
		}
		return
	}
	c.entries[free] = hirEntry{tag: set, counts: 1 << shift}
	c.touchOrder = append(c.touchOrder, free)
	c.hitsRecorded++
}

// Touched returns the number of touched (valid) entries awaiting drain.
func (c *Cache) Touched() int { return len(c.touchOrder) }

// Drain copies the touched entries — in first-touch order — into fresh
// Records and flushes the cache, modelling the copy-to-buffer + PCIe
// transfer + flush sequence of §IV-B. Only touched entries are transferred.
func (c *Cache) Drain() []Record {
	//lint:ignore hpelint/hotalloc per-drain-epoch transfer buffer modelling the PCIe copy, not a per-event allocation
	out := make([]Record, 0, len(c.touchOrder))
	for _, idx := range c.touchOrder {
		e := &c.entries[idx]
		out = append(out, Record{Set: e.tag, Counts: e.counts})
		e.counts = 0
	}
	c.touchOrder = c.touchOrder[:0]
	c.drains++
	c.drainedTotal += uint64(len(out))
	if len(out) > 0 {
		c.nonEmpty++
	}
	if len(out) > c.drainedMax {
		c.drainedMax = len(out)
	}
	c.drainedCounts = append(c.drainedCounts, len(out))
	return out
}

// TransferBytes returns the PCIe payload size of a drain of n entries. Each
// entry is tag (48 bits in the paper's 64-bit costing) plus the counter
// vector, rounded up to whole bytes.
func (c *Cache) TransferBytes(n int) int {
	entryBits := 48 + c.cfg.Geometry.SetSize()*CounterBits
	return n * ((entryBits + 7) / 8)
}

// StorageBytes returns the on-GPU storage cost of the whole cache — the
// paper's 10 KB for the default configuration.
func (c *Cache) StorageBytes() int { return c.TransferBytes(c.cfg.Entries) }

// Stats reports cumulative behaviour.
type Stats struct {
	HitsRecorded uint64
	Conflicts    uint64
	Drains       uint64
	// MeanDrained is the average number of entries transferred per drain.
	MeanDrained float64
	// MeanNonEmpty averages over drains that actually moved entries — the
	// paper's Fig. 15 "entries transferred each time" metric.
	MeanNonEmpty float64
	MaxDrained   int
}

// Stats returns the cache's cumulative statistics.
func (c *Cache) Stats() Stats {
	s := Stats{
		HitsRecorded: c.hitsRecorded,
		Conflicts:    c.conflicts,
		Drains:       c.drains,
		MaxDrained:   c.drainedMax,
	}
	if c.drains > 0 {
		s.MeanDrained = float64(c.drainedTotal) / float64(c.drains)
	}
	if c.nonEmpty > 0 {
		s.MeanNonEmpty = float64(c.drainedTotal) / float64(c.nonEmpty)
	}
	return s
}

// DrainSizes returns the per-drain transferred-entry counts.
func (c *Cache) DrainSizes() []int { return c.drainedCounts }
