// Package cache implements the set-associative data caches of Table I: the
// per-SM 16-KB 4-way L1 data cache and the shared 1.5-MB 8-way L2, both
// LRU-replaced, at 128-byte line granularity. The simulator's data path
// (optional — the paper's results are fault-driven) sends every completed
// translation through L1 → L2 → DRAM. The tag array is tlb.TLB, keyed by
// line ID.
package cache

import (
	"hpe/internal/addrspace"
	"hpe/internal/tlb"
)

// LineShift is log2 of the cache line size (128-byte lines, the GPU
// coalescing granularity).
const LineShift = 7

// LineBytes is the cache line size.
const LineBytes = 1 << LineShift

// LineID identifies a cache line (byte address >> LineShift).
type LineID uint64

// LineOf returns the line containing a byte address.
func LineOf(a addrspace.VAddr) LineID { return LineID(a >> LineShift) }

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
}

// L1Config returns Table I's per-SM L1 data cache: 16 KB, 4-way.
func L1Config() Config { return Config{SizeBytes: 16 << 10, Ways: 4} }

// L2Config returns Table I's shared L2: 1.5 MB, 8-way.
func L2Config() Config { return Config{SizeBytes: 1536 << 10, Ways: 8} }

// Cache is a set-associative LRU cache over line IDs. Tags only — the
// simulator needs hit/miss behaviour, not data.
type Cache struct {
	tags *tlb.TLB
}

// New builds a cache from a config. It panics unless the line count is a
// positive multiple of the associativity.
func New(cfg Config) *Cache {
	return &Cache{tags: tlb.New("cache", cfg.SizeBytes/LineBytes, cfg.Ways)}
}

// tag is the array key of a line: the line ID itself, so the set index is
// the line ID modulo the set count.
func tag(id LineID) addrspace.PageID { return addrspace.PageID(id) }

// Access probes the cache for a line, filling on miss (allocate-on-miss,
// LRU victim). It reports whether the access hit.
func (c *Cache) Access(id LineID) bool {
	if c.tags.Lookup(tag(id)) {
		return true
	}
	c.tags.Fill(tag(id))
	return false
}

// InvalidatePage drops every line of a 4-KB page (called on page eviction).
func (c *Cache) InvalidatePage(p addrspace.PageID) {
	base := LineOf(p.BaseAddr())
	for l := base; l < base+(addrspace.PageBytes/LineBytes); l++ {
		c.tags.Invalidate(tag(l))
	}
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses uint64) {
	hits, misses, _, _ = c.tags.Stats()
	return hits, misses
}
