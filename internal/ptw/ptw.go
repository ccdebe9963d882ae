// Package ptw models a hardware page-table walker over a radix page table,
// with a shared page-walk cache (PWC) over the upper levels — the *first* of
// the two address-translation designs the paper describes in §II (citing
// Power et al., HPCA'14). The paper adopts the second design (a shared L2
// TLB) "due to better performance"; this package exists so that claim can be
// reproduced as an experiment rather than taken on faith (see
// internal/experiments' "translation" study).
//
// Geometry follows x86-64 4-KB paging: a 48-bit virtual address walks four
// radix levels of 9 bits each. A walk starts below whatever prefix the PWC
// already holds; each remaining level costs one memory access. The PWC is
// a tlb.TLB keyed by (level, prefix).
package ptw

import (
	"hpe/internal/addrspace"
	"hpe/internal/sim"
	"hpe/internal/tlb"
)

// Levels is the number of radix levels (PML4 → PDP → PD → PT).
const Levels = 4

// bitsPerLevel is the radix width of each level for 4-KB pages.
const bitsPerLevel = 9

// Config sizes the walker.
type Config struct {
	// PWCEntries and PWCWays size the page-walk cache (entries across all
	// cached levels; Power et al. use a small shared structure).
	PWCEntries, PWCWays int
	// MemAccessLatency is the cost in cycles of reading one page-table
	// entry from the memory hierarchy (the paper's baseline charges a fixed
	// 8-cycle walk; a real radix walk pays per level on PWC misses).
	MemAccessLatency sim.Cycle
}

// DefaultConfig returns a Power-et-al-flavoured walker: a 64-entry, 8-way
// PWC and a 20-cycle per-level memory access.
func DefaultConfig() Config {
	return Config{PWCEntries: 64, PWCWays: 8, MemAccessLatency: 20}
}

// Walker is the page-table walker with its PWC. The actual translation
// outcome (hit or fault) is decided by residency, exactly as in the
// baseline design; the walker contributes latency.
type Walker struct {
	latency sim.Cycle
	pwc     *tlb.TLB

	walks       uint64
	levelsRead  uint64
	fullyCached uint64
}

// New returns a walker with an empty PWC. It panics on a PWC geometry
// tlb.New rejects.
func New(cfg Config) *Walker {
	if cfg.MemAccessLatency == 0 {
		panic("ptw: zero memory access latency")
	}
	return &Walker{
		latency: cfg.MemAccessLatency,
		pwc:     tlb.New("pwc", cfg.PWCEntries, cfg.PWCWays),
	}
}

// prefixFor returns the VA prefix that indexes the page-table subtree at the
// given level for page p. Level Levels-1 is the topmost cached level (the
// PML4 entry covers the widest region).
func prefixFor(p addrspace.PageID, level int) uint64 {
	return uint64(p) >> uint(bitsPerLevel*level)
}

// pwcTag identifies the page-table subtree at a level (1..Levels-1; the
// leaf PTE itself is what the TLBs cache) for page p: its prefix and level
// packed into one PWC tag.
func pwcTag(p addrspace.PageID, level int) addrspace.PageID {
	return addrspace.PageID(prefixFor(p, level)*Levels + uint64(level))
}

// WalkLatency performs one radix walk for page p and returns its latency:
// the PWC is probed top-down for the deepest cached subtree, then every
// remaining level costs one memory access. The traversed upper-level entries
// are installed in the PWC.
func (w *Walker) WalkLatency(p addrspace.PageID) sim.Cycle {
	w.walks++
	// Find the deepest cached level: level 1 covers the smallest region
	// (512 pages), level 3 the largest. A hit at level l means levels above
	// l are implicitly covered.
	start := Levels // walk from the root
	for level := 1; level < Levels; level++ {
		if w.pwc.Lookup(pwcTag(p, level)) {
			start = level
			break
		}
	}
	if start == 1 {
		w.fullyCached++
	}
	// Read the remaining levels: start..1, plus the leaf PTE.
	reads := uint64(start)
	w.levelsRead += reads
	// Install the newly traversed subtree entries.
	for level := start - 1; level >= 1; level-- {
		w.pwc.Fill(pwcTag(p, level))
	}
	return sim.Cycle(reads) * w.latency
}

// Stats reports walker behaviour.
type Stats struct {
	Walks       uint64
	LevelsRead  uint64
	PWCLookups  uint64
	PWCHits     uint64
	FullyCached uint64
	// MeanLevels is the average page-table reads per walk (4 = cold radix
	// walk, 1 = perfectly cached).
	MeanLevels float64
}

// Stats returns cumulative counters.
func (w *Walker) Stats() Stats {
	hits, misses, _, _ := w.pwc.Stats()
	s := Stats{
		Walks:       w.walks,
		LevelsRead:  w.levelsRead,
		PWCLookups:  hits + misses,
		PWCHits:     hits,
		FullyCached: w.fullyCached,
	}
	if w.walks > 0 {
		s.MeanLevels = float64(w.levelsRead) / float64(w.walks)
	}
	return s
}
