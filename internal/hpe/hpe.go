package hpe

import (
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
)

// HPE is the hierarchical page eviction policy (Section IV). It implements
// policy.Policy; the UVM driver additionally feeds it HIR drains through
// OnHitBatch.
type HPE struct {
	cfg   Config
	chain *setChain
	adj   *adjuster

	classified bool
	ratios     RatioStats
	faultCount uint64

	// Stats.
	searches      uint64
	comparisons   uint64
	divisionCount int
	lruFallbacks  uint64
	middleOrNewEv uint64
	hitBatchCount uint64
	hitBatchDrops uint64
}

// New returns an HPE policy instance. It panics on an invalid config, since
// configs are build-time constants in every caller.
func New(cfg Config) *HPE {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &HPE{
		cfg:   cfg,
		chain: newSetChain(cfg.counterCap()),
		adj:   newAdjuster(cfg),
	}
}

// Name implements policy.Policy.
func (h *HPE) Name() string { return "HPE" }

// locate returns a page's set, its offset, and the set's record.
func (h *HPE) locate(p addrspace.PageID) (addrspace.SetID, int, *setRecord) {
	s := h.cfg.Geometry.SetOf(p)
	return s, h.cfg.Geometry.Offset(p), h.chain.record(s)
}

// checkDivision applies §IV-C: the first time an undivided primary's counter
// reaches the cap with an incomplete bit vector, the set is divided and the
// bit vector becomes the immutable primary mask.
func (h *HPE) checkDivision(r *setRecord, e *chainEntry) {
	if h.cfg.DisableDivision || e.secondary || e.divided ||
		e.counter < h.cfg.divisionThreshold() {
		return
	}
	e.divided = true // the check runs once per entry life
	if r.divided {
		return // first-division result reused
	}
	// The primary keeps the pages that have been touched — plus any page the
	// driver migrated speculatively (prefetch): those are resident under this
	// entry and must not route to a secondary that doesn't track them.
	mask := e.bitVector | e.residentMask
	if bits.OnesCount32(mask) >= h.cfg.Geometry.SetSize() {
		return // fully populated: stays one page set
	}
	r.divided, r.primaryMask = true, mask
	h.divisionCount++
}

// OnWalkHit implements policy.Policy. In the production configuration HPE
// never sees walk hits directly (they arrive batched via OnHitBatch); with
// IdealHitFeed the hit updates the chain immediately.
func (h *HPE) OnWalkHit(p addrspace.PageID, seq int) {
	if !h.cfg.IdealHitFeed {
		return
	}
	s, off, r := h.locate(p)
	if e := h.chain.updateExisting(s, r, r.half(off), 1); e != nil {
		h.checkDivision(r, e)
	}
}

// OnHitBatch consumes one HIR drain: each record's counts are split between
// the set's primary and secondary entries per the division history, and the
// per-entry sums update counters and recency. Records for sets whose entries
// have left the chain are dropped (their information is lost, as the paper
// accepts for its lossy HIR channel).
func (h *HPE) OnHitBatch(recs []hir.Record) {
	h.hitBatchCount++
	for _, rec := range recs {
		r := h.chain.record(rec.Set)
		var sums [2]int
		for w := rec.Counts; w != 0; { // each nonzero counter, lowest offset first
			off := bits.TrailingZeros64(w) / hir.CounterBits
			sums[r.half(off)] += rec.Count(off)
			w &^= (1<<hir.CounterBits - 1) << (off * hir.CounterBits)
		}
		if sums[primary] > 0 {
			if e := h.chain.updateExisting(rec.Set, r, primary, sums[primary]); e != nil {
				h.checkDivision(r, e)
			} else {
				h.hitBatchDrops++
			}
		}
		if sums[secondary] > 0 && h.chain.updateExisting(rec.Set, r, secondary, sums[secondary]) == nil {
			h.hitBatchDrops++
		}
	}
}

// OnFault implements policy.Policy: check the wrong-eviction buffers, update
// the chain (counter + bit vector + movement), run the division check, and
// handle interval rollover.
func (h *HPE) OnFault(p addrspace.PageID, seq int) {
	if h.adj.onFault(p) && h.classified {
		h.adj.maybeAdjust(h.chain.curInterval, h.faultCount)
	}
	h.faultCount++
	s, off, r := h.locate(p)
	h.checkDivision(r, h.chain.touch(s, r, r.half(off), 1, off))
	if h.faultCount%uint64(h.cfg.IntervalFaults) == 0 {
		h.adj.onIntervalEnd()
		h.chain.rollover()
	}
}

// OnMapped implements policy.Policy: mark the page resident in its entry.
func (h *HPE) OnMapped(p addrspace.PageID, seq int) {
	s, off, r := h.locate(p)
	hf := r.half(off)
	e := h.chain.at(r.entry[hf])
	if e == nil {
		// No fault created the entry: a prefetch reached an untouched half,
		// or the driver evicted the whole half between fault and map.
		e = h.chain.touch(s, r, hf, 0, off)
	}
	e.residentMask |= 1 << uint(off)
}

// classify runs the one-time statistics classification at the first
// memory-full moment (the first SelectVictim call).
func (h *HPE) classify() {
	h.ratios = computeRatios(h.chain, h.cfg.Geometry.SetSize())
	cat := Classify(h.ratios)
	strat := initialStrategy(cat)
	if h.cfg.ManualStrategy != nil {
		strat = *h.cfg.ManualStrategy
	}
	oldLen, _, _ := h.chain.partitionLens()
	h.adj.start(cat, strat, oldLen, h.chain.curInterval, h.faultCount)
	h.classified = true
}

// SelectVictim implements policy.Policy: pick a victim page set per the
// global mechanism (§IV-D), then evict its lowest-addressed resident page.
func (h *HPE) SelectVictim() addrspace.PageID {
	if !h.classified {
		h.classify()
	}
	var e *chainEntry
	if h.adj.active == StrategyMRUC {
		e = h.selectMRUC()
	}
	if e == nil {
		e = h.selectLRU()
	}
	if e == nil {
		panic("hpe: SelectVictim found no evictable page set")
	}
	if h.chain.partitionOf(e) != PartitionOld {
		h.middleOrNewEv++
	}
	off := e.lowestResident()
	return h.cfg.Geometry.PageAt(e.set, off)
}

// selectLRU walks from the chain head (globally least recent) to the first
// entry with a resident page. Selecting from the old partition first is
// automatic: the head is in the oldest non-empty partition.
func (h *HPE) selectLRU() *chainEntry {
	for e := h.chain.at(h.chain.head); e != nil; e = h.chain.at(e.next) {
		if e.evictable() {
			return e
		}
	}
	return nil
}

// selectMRUC implements the MRU-C strategy: starting from the MRU end of
// the old partition (pushed toward LRU by the accumulated search jump),
// find a page set whose counter equals the page-set size; if none exists,
// take the minimum-counter set. Returns nil when the old partition has no
// evictable entry, in which case the caller falls back to LRU over the
// middle/new partitions.
func (h *HPE) selectMRUC() *chainEntry {
	start := h.chain.oldMRU()
	if start == nil {
		h.lruFallbacks++
		return nil
	}
	for i := 0; i < h.adj.searchJump && start.prev != nilEntry; i++ {
		start = h.chain.at(start.prev)
	}
	h.searches++
	setSize := h.cfg.Geometry.SetSize()
	// Pass 1: a set whose counter equals the page-set size.
	for e := start; e != nil; e = h.chain.at(e.prev) {
		h.comparisons++
		if e.counter == setSize && e.evictable() {
			return e
		}
	}
	// Pass 2: the minimum-counter set (ties resolved toward the MRU side).
	var best *chainEntry
	for e := start; e != nil; e = h.chain.at(e.prev) {
		h.comparisons++
		if !e.evictable() {
			continue
		}
		if best == nil || e.counter < best.counter {
			best = e
		}
	}
	if best == nil {
		h.lruFallbacks++
	}
	return best
}

// OnEvicted implements policy.Policy: clear residency, record the eviction
// in the active strategy's FIFO, and drop the entry from the chain once all
// of its pages are gone.
func (h *HPE) OnEvicted(p addrspace.PageID) {
	h.adj.recordEviction(p)
	_, off, r := h.locate(p)
	hf := r.half(off)
	e := h.chain.at(r.entry[hf])
	if e == nil {
		return
	}
	e.residentMask &^= 1 << uint(off)
	if e.residentMask == 0 {
		h.chain.remove(r, hf)
	}
}
