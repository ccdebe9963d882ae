package hpe

// This file keeps the previous HPE implementation, verbatim apart from
// identifier renames, as the oracle FuzzHPEEquivalence checks the policy
// against. It splits per-set state across Go maps (the chain index, the
// division history and the FIFO memberships), carries every derived
// parameter as an explicit config field, and allocates one chain entry per
// set life. The shared vocabulary (Strategy, Category, Partition,
// RatioStats, StrategySpan, Stats, ratio, initialStrategy) is the
// package's own.

import (
	"fmt"
	"math"
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
)

// refConfigOf expands a Config into the oracle's explicit parameter set,
// derived the way the old ConfigForGeometry derived it.
func refConfigOf(c Config) refConfig {
	rc := refConfigForGeometry(c.Geometry, c.IntervalFaults)
	rc.DynamicAdjustment = c.DynamicAdjustment
	rc.ManualStrategy = c.ManualStrategy
	rc.DisableDivision = c.DisableDivision
	rc.DivisionCounterThreshold = c.DivisionCounterThreshold
	rc.IdealHitFeed = c.IdealHitFeed
	return rc
}

// refConfig parameterises refHPE. DefaultConfig returns the paper's defaults; the
// sensitivity studies (Figs. 7–8, §V-A) vary individual fields.
type refConfig struct {
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

// refConfigForGeometry derives a config from a page-set geometry and interval
// length, scaling the dependent parameters the way the paper derives them:
// counter cap = 4× set size, FIFO depth = 2× interval, wrong-eviction
// threshold = set size, jump distance = 16, jump floor = 4× set size.
func refConfigForGeometry(g addrspace.Geometry, intervalFaults int) refConfig {
	setSize := g.SetSize()
	return refConfig{
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

func (c refConfig) validate() error {
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
func (c refConfig) divisionThreshold() int {
	if c.DivisionCounterThreshold > 0 {
		return c.DivisionCounterThreshold
	}
	return c.CounterCap
}

// refDivisionInfo is the persistent per-set division record. It doubles as the
// paper's history buffer: it survives the primary's removal from the chain,
// and because the first division's result is reused for every later life of
// the set, the recorded mask is immutable once set.
type refDivisionInfo struct {
	divided     bool
	primaryMask uint32 // offsets that belong to the primary page set
}

// refHPE is the hierarchical page eviction policy (Section IV). It implements
// policy.Policy; the UVM driver additionally feeds it HIR drains through
// OnHitBatch.
type refHPE struct {
	cfg       refConfig
	chain     *refSetChain
	divisions map[addrspace.SetID]refDivisionInfo
	adj       *refAdjuster

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

// newRefHPE returns an refHPE policy instance. It panics on an invalid config, since
// configs are build-time constants in every caller.
func newRefHPE(cfg refConfig) *refHPE {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &refHPE{
		cfg:       cfg,
		chain:     newRefSetChain(cfg.Geometry, cfg.CounterCap),
		divisions: make(map[addrspace.SetID]refDivisionInfo),
		adj:       newRefAdjuster(cfg),
	}
}

// Name implements policy.Policy.
func (h *refHPE) Name() string { return "HPE" }

// route resolves a page to its chain entry key, consulting the division
// history (Fig. 6): pages of an undivided set, and divided-set pages inside
// the recorded primary mask, use the primary tag; the rest use the secondary
// tag.
func (h *refHPE) route(p addrspace.PageID) (refEntryKey, int) {
	set := h.cfg.Geometry.SetOf(p)
	off := h.cfg.Geometry.Offset(p)
	d := h.divisions[set]
	if d.divided && d.primaryMask&(1<<uint(off)) == 0 {
		return refEntryKey{set: set, secondary: true}, off
	}
	return refEntryKey{set: set, secondary: false}, off
}

// checkDivision applies §IV-C: the first time an undivided primary's counter
// reaches the cap with an incomplete bit vector, the set is divided and the
// bit vector becomes the immutable primary mask.
func (h *refHPE) checkDivision(e *refChainEntry) {
	if h.cfg.DisableDivision || e.key.secondary || e.divided ||
		e.counter < h.cfg.divisionThreshold() {
		return
	}
	d := h.divisions[e.key.set]
	if d.divided {
		e.divided = true // first-division result reused
		return
	}
	e.divided = true // the check runs once per entry life
	// The primary keeps the pages that have been touched — plus any page the
	// driver migrated speculatively (prefetch): those are resident under this
	// entry and must not route to a secondary that doesn't track them.
	mask := e.bitVector | e.residentMask
	if bits.OnesCount32(mask) >= h.cfg.Geometry.SetSize() {
		return // fully populated: stays one page set
	}
	h.divisions[e.key.set] = refDivisionInfo{divided: true, primaryMask: mask}
	h.divisionCount++
}

// OnWalkHit implements policy.Policy. In the production configuration refHPE
// never sees walk hits directly (they arrive batched via OnHitBatch); with
// IdealHitFeed the hit updates the chain immediately.
func (h *refHPE) OnWalkHit(p addrspace.PageID, seq int) {
	if !h.cfg.IdealHitFeed {
		return
	}
	k, _ := h.route(p)
	if e := h.chain.updateExisting(k, 1); e != nil {
		h.checkDivision(e)
	}
}

// OnHitBatch consumes one HIR drain: each record's counts are split between
// the set's primary and secondary entries per the division history, and the
// per-entry sums update counters and recency. Records for sets whose entries
// have left the chain are dropped (their information is lost, as the paper
// accepts for its lossy HIR channel).
func (h *refHPE) OnHitBatch(recs []hir.Record) {
	h.hitBatchCount++
	for _, r := range recs {
		d := h.divisions[r.Set]
		var primarySum, secondarySum int
		for off := 0; off < 64/hir.CounterBits; off++ {
			c := r.Count(off)
			if c == 0 {
				continue
			}
			if d.divided && d.primaryMask&(1<<uint(off)) == 0 {
				secondarySum += int(c)
			} else {
				primarySum += int(c)
			}
		}
		if primarySum > 0 {
			if e := h.chain.updateExisting(refEntryKey{set: r.Set}, primarySum); e != nil {
				h.checkDivision(e)
			} else {
				h.hitBatchDrops++
			}
		}
		if secondarySum > 0 {
			if e := h.chain.updateExisting(refEntryKey{set: r.Set, secondary: true}, secondarySum); e == nil {
				h.hitBatchDrops++
			}
		}
	}
}

// OnFault implements policy.Policy: check the wrong-eviction buffers, update
// the chain (counter + bit vector + movement), run the division check, and
// handle interval rollover.
func (h *refHPE) OnFault(p addrspace.PageID, seq int) {
	if h.adj.onFault(p) && h.classified {
		h.adj.maybeAdjust(h.chain.curInterval, h.faultCount)
	}
	h.faultCount++
	k, off := h.route(p)
	e := h.chain.touch(k, 1, off)
	h.checkDivision(e)
	if h.faultCount%uint64(h.cfg.IntervalFaults) == 0 {
		h.adj.onIntervalEnd()
		h.chain.rollover()
	}
}

// OnMapped implements policy.Policy: mark the page resident in its entry.
func (h *refHPE) OnMapped(p addrspace.PageID, seq int) {
	k, off := h.route(p)
	e := h.chain.get(k)
	if e == nil {
		// Defensive: the entry vanished between fault and map (only possible
		// if the driver evicted the whole set in between).
		e = h.chain.touch(k, 0, off)
	}
	e.residentMask |= 1 << uint(off)
}

// classify runs the one-time statistics classification at the first
// memory-full moment (the first SelectVictim call).
func (h *refHPE) classify() {
	h.ratios = refComputeRatios(h.chain)
	cat := refClassify(h.ratios, h.cfg.Ratio1Threshold, h.cfg.Ratio2Threshold)
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
func (h *refHPE) SelectVictim() addrspace.PageID {
	if !h.classified {
		h.classify()
	}
	var e *refChainEntry
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
	return h.cfg.Geometry.PageAt(e.key.set, off)
}

// selectLRU walks from the chain head (globally least recent) to the first
// entry with a resident page. Selecting from the old partition first is
// automatic: the head is in the oldest non-empty partition.
func (h *refHPE) selectLRU() *refChainEntry {
	for e := h.chain.head; e != nil; e = e.next {
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
func (h *refHPE) selectMRUC() *refChainEntry {
	start := h.chain.oldMRU()
	if start == nil {
		h.lruFallbacks++
		return nil
	}
	for i := 0; i < h.adj.searchJump && start.prev != nil; i++ {
		start = start.prev
	}
	h.searches++
	setSize := h.cfg.Geometry.SetSize()
	// Pass 1: a set whose counter equals the page-set size.
	for e := start; e != nil; e = e.prev {
		h.comparisons++
		if e.counter == setSize && e.evictable() {
			return e
		}
	}
	// Pass 2: the minimum-counter set (ties resolved toward the MRU side).
	var best *refChainEntry
	for e := start; e != nil; e = e.prev {
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
func (h *refHPE) OnEvicted(p addrspace.PageID) {
	h.adj.recordEviction(p)
	k, off := h.route(p)
	e := h.chain.get(k)
	if e == nil {
		return
	}
	e.residentMask &^= 1 << uint(off)
	if e.residentMask == 0 {
		h.chain.remove(e)
	}
}

// refEntryKey identifies a chain entry: the page-set address plus whether this
// is the secondary half of a divided set (primary and secondary "have
// different tags", §IV-C).
type refEntryKey struct {
	set       addrspace.SetID
	secondary bool
}

// packed interns the key into one word (set<<1 | secondary) so the chain
// index uses the runtime's uint64 fast path instead of hashing a struct.
func (k refEntryKey) packed() uint64 {
	v := uint64(k.set) << 1
	if k.secondary {
		v |= 1
	}
	return v
}

func (k refEntryKey) String() string {
	if k.secondary {
		return fmt.Sprintf("%v/secondary", k.set)
	}
	return k.set.String()
}

// refChainEntry is one page-set chain entry: tag, saturating counter, bit
// vector, divided flag (Fig. 5), plus the residency mask refHPE needs to drain
// victims page by page and the interval stamp that encodes partition
// membership.
type refChainEntry struct {
	key          refEntryKey
	counter      int
	bitVector    uint32 // offsets that have page-faulted (faults only, §IV-C)
	residentMask uint32 // offsets currently resident in device memory
	divided      bool

	// movedInterval is the interval in which the entry was last inserted or
	// moved into the new partition. Because every (re)insertion appends at
	// the tail with the then-current interval number, the chain is always
	// ordered by this stamp — so the paper's P1/P2 partition pointers are
	// equivalent to stamp thresholds, which is how we implement them.
	movedInterval uint64

	prev, next *refChainEntry
}

// refSetChain is the page-set chain of Fig. 5: a doubly-linked list ordered
// head = LRU ... tail = MRU, with the three partitions derived from interval
// stamps.
type refSetChain struct {
	geometry    addrspace.Geometry
	counterCap  int
	head, tail  *refChainEntry
	index       map[uint64]*refChainEntry // packed refEntryKey → entry
	curInterval uint64
}

func newRefSetChain(g addrspace.Geometry, counterCap int) *refSetChain {
	return &refSetChain{
		geometry:   g,
		counterCap: counterCap,
		index:      make(map[uint64]*refChainEntry),
	}
}

// Len returns the number of chain entries.
func (c *refSetChain) Len() int { return len(c.index) }

// partitionOf derives the entry's partition from its stamp.
func (c *refSetChain) partitionOf(e *refChainEntry) Partition {
	switch {
	case e.movedInterval == c.curInterval:
		return PartitionNew
	case e.movedInterval+1 == c.curInterval:
		return PartitionMiddle
	default:
		return PartitionOld
	}
}

// rollover advances the interval: the new partition becomes the middle, the
// middle joins the old (the paper's P1 ← P2, P2 ← tail pointer update).
func (c *refSetChain) rollover() { c.curInterval++ }

func (c *refSetChain) get(k refEntryKey) *refChainEntry { return c.index[k.packed()] }

// appendTail links e at the MRU position.
func (c *refSetChain) appendTail(e *refChainEntry) {
	e.prev, e.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
}

func (c *refSetChain) unlink(e *refChainEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove deletes the entry from the chain entirely (all its pages evicted).
func (c *refSetChain) remove(e *refChainEntry) {
	c.unlink(e)
	delete(c.index, e.key.packed())
}

// touch applies one reference event to the chain (Fig. 6): find or create
// the entry for k, bump its counter by inc (saturating), set the bit vector
// on faults, and move the entry to the MRU position of the new partition —
// unless it is already in the new partition, in which case it stays put
// ("within an interval, once a page set has been placed into the new
// partition ... following touches will not trigger its movement").
// faultOffset is the faulting page's offset within the set, or -1 for a
// hit-batch update. Returns the entry.
func (c *refSetChain) touch(k refEntryKey, inc, faultOffset int) *refChainEntry {
	pk := k.packed()
	e := c.index[pk]
	if e == nil {
		e = &refChainEntry{key: k, movedInterval: c.curInterval}
		c.index[pk] = e
		c.appendTail(e)
	} else if c.partitionOf(e) != PartitionNew {
		c.unlink(e)
		e.movedInterval = c.curInterval
		c.appendTail(e)
	}
	e.counter += inc
	if e.counter > c.counterCap {
		e.counter = c.counterCap
	}
	if faultOffset >= 0 {
		e.bitVector |= 1 << uint(faultOffset)
	}
	return e
}

// updateExisting is the hit-batch variant of touch: it updates and moves the
// entry only if it already exists (hit information for sets evicted before
// the drain is dropped, mirroring the HIR's lossy nature).
func (c *refSetChain) updateExisting(k refEntryKey, inc int) *refChainEntry {
	if c.index[k.packed()] == nil {
		return nil
	}
	return c.touch(k, inc, -1)
}

// oldMRU returns the MRU-most entry of the old partition, or nil when the
// old partition is empty. Because the chain is stamp-ordered, this is found
// by walking backward from the tail past the new and middle partitions.
func (c *refSetChain) oldMRU() *refChainEntry {
	for e := c.tail; e != nil; e = e.prev {
		if c.partitionOf(e) == PartitionOld {
			return e
		}
	}
	return nil
}

// partitionLens counts entries per partition (O(n); used for stats and the
// first-full old-partition census).
func (c *refSetChain) partitionLens() (old, middle, new int) {
	for e := c.head; e != nil; e = e.next {
		switch c.partitionOf(e) {
		case PartitionOld:
			old++
		case PartitionMiddle:
			middle++
		default:
			new++
		}
	}
	return
}

// evictable reports whether the entry has at least one resident page.
func (e *refChainEntry) evictable() bool { return e.residentMask != 0 }

// lowestResident returns the lowest offset with a resident page; the paper
// drains a victim set's pages in address order.
func (e *refChainEntry) lowestResident() int {
	if e.residentMask == 0 {
		return -1
	}
	return bits.TrailingZeros32(e.residentMask)
}

// populated reports whether every page of the set has faulted at least once.
func (e *refChainEntry) populated(setSize int) bool {
	return bits.OnesCount32(e.bitVector) >= setSize
}

// refEvictionFIFO is one of the per-strategy FIFO buffers of §IV-E: it holds
// the virtual page addresses evicted by that strategy over (at most) the
// last two intervals; a page fault that hits the buffer is a wrong eviction.
type refEvictionFIFO struct {
	depth   int
	buf     []addrspace.PageID
	next    int
	full    bool
	members map[addrspace.PageID]int // page → occurrences in buf
}

func newRefEvictionFIFO(depth int) *refEvictionFIFO {
	return &refEvictionFIFO{
		depth:   depth,
		buf:     make([]addrspace.PageID, depth),
		members: make(map[addrspace.PageID]int),
	}
}

func (f *refEvictionFIFO) push(p addrspace.PageID) {
	if f.full {
		old := f.buf[f.next]
		if n := f.members[old]; n <= 1 {
			delete(f.members, old)
		} else {
			f.members[old] = n - 1
		}
	}
	f.buf[f.next] = p
	f.members[p]++
	f.next++
	if f.next == f.depth {
		f.next = 0
		f.full = true
	}
}

func (f *refEvictionFIFO) contains(p addrspace.PageID) bool { return f.members[p] > 0 }

func (f *refEvictionFIFO) len() int {
	if f.full {
		return f.depth
	}
	return f.next
}

// refAdjuster owns the dynamic-adjustment machinery (Algorithm 1): the active
// strategy, the wrong-eviction FIFOs and counters, the search-point jump
// state for regular applications, and the switching heuristic for irregular
// ones.
type refAdjuster struct {
	cfg      refConfig
	category Category
	active   Strategy

	fifos      [2]*refEvictionFIFO
	wrong      [2]int
	wrongTotal [2]int
	// failRun[s] is the length, in intervals, of strategy s's last run
	// before a wrong-eviction trigger; +Inf when s has never failed. The
	// paper's longer_interval(LRU, MRU-C) selects the strategy with the
	// longer run (DESIGN.md §4.5 records this interpretation).
	failRun  [2]float64
	runStart uint64 // interval at which the active strategy was activated

	// Regular-application state.
	searchJump         int
	oldSetsAtFirstFull int
	jumpAllowed        bool

	// Bookkeeping for Fig. 13.
	spans     []StrategySpan
	spanStart uint64 // fault number at which the active span began
	jumps     []uint64
	switches  int
}

func newRefAdjuster(cfg refConfig) *refAdjuster {
	a := &refAdjuster{cfg: cfg}
	a.fifos[StrategyLRU] = newRefEvictionFIFO(cfg.FIFODepth)
	a.fifos[StrategyMRUC] = newRefEvictionFIFO(cfg.FIFODepth)
	a.failRun[StrategyLRU] = math.Inf(1)
	a.failRun[StrategyMRUC] = math.Inf(1)
	return a
}

// start installs the classification outcome and the initial strategy.
// oldSets is the old-partition length at first memory-full, which gates the
// regular-application search-point jump (Algorithm 1 / §IV-E).
func (a *refAdjuster) start(cat Category, strat Strategy, oldSets int, interval, fault uint64) {
	a.category = cat
	a.active = strat
	a.oldSetsAtFirstFull = oldSets
	a.jumpAllowed = oldSets >= a.cfg.MinOldSetsForJump
	a.runStart = interval
	a.spanStart = fault
}

// recordEviction notes a page evicted by the active strategy.
func (a *refAdjuster) recordEviction(p addrspace.PageID) {
	a.fifos[a.active].push(p)
}

// onFault checks the fault against both strategies' FIFO buffers and charges
// a wrong eviction to the owning strategy. It returns true when the active
// strategy's counter reached the trigger threshold (the caller then invokes
// maybeAdjust).
func (a *refAdjuster) onFault(p addrspace.PageID) bool {
	triggered := false
	for _, s := range []Strategy{StrategyLRU, StrategyMRUC} {
		if a.fifos[s].contains(p) {
			a.wrong[s]++
			a.wrongTotal[s]++
			if s == a.active && a.wrong[s] >= a.cfg.WrongEvictionThreshold {
				triggered = true
			}
		}
	}
	return triggered
}

// onIntervalEnd resets the wrong-eviction counters ("the counter is reset
// periodically at the end of each interval").
func (a *refAdjuster) onIntervalEnd() {
	a.wrong[StrategyLRU] = 0
	a.wrong[StrategyMRUC] = 0
}

// maybeAdjust runs Algorithm 1 when the active strategy's wrong-eviction
// counter hit the threshold. interval and fault locate the event for the
// bookkeeping. It returns true when anything changed.
func (a *refAdjuster) maybeAdjust(interval, fault uint64) bool {
	if !a.cfg.DynamicAdjustment {
		return false
	}
	triggered := a.active
	defer func() { a.wrong[triggered] = 0 }()
	switch a.category {
	case CategoryRegular:
		// Regular applications stay on MRU-C; with a large enough footprint
		// the search point jumps forward to select colder page sets.
		if !a.jumpAllowed {
			return false
		}
		// The jump distance is fixed ("jumps the search point forward by
		// 16"); repeated triggers re-confirm it rather than compounding.
		a.searchJump = a.cfg.SearchJumpDistance
		a.jumps = append(a.jumps, fault)
		return true
	default:
		// Irregular applications switch to longer_interval(LRU, MRU-C):
		// record the failed run, then adopt the strategy with the longer
		// expected failure-free run.
		run := float64(interval - a.runStart)
		a.failRun[a.active] = run
		other := StrategyLRU
		if a.active == StrategyLRU {
			other = StrategyMRUC
		}
		choice := a.active
		if a.failRun[other] >= a.failRun[a.active] {
			choice = other
		}
		if choice == a.active {
			return false
		}
		a.spans = append(a.spans, StrategySpan{Strategy: a.active, FromFault: a.spanStart, ToFault: fault})
		a.active = choice
		a.runStart = interval
		a.spanStart = fault
		a.switches++
		return true
	}
}

// timeline closes and returns the strategy spans up to endFault.
func (a *refAdjuster) timeline(endFault uint64) []StrategySpan {
	out := make([]StrategySpan, len(a.spans), len(a.spans)+1)
	copy(out, a.spans)
	if endFault > a.spanStart || len(out) == 0 {
		out = append(out, StrategySpan{Strategy: a.active, FromFault: a.spanStart, ToFault: endFault})
	}
	return out
}

// refComputeRatios traverses the chain and buckets every entry's counter:
// regular counters are divisible by the page-set size; small-and-regular
// equal 1× or 2× the set size; large-and-regular equal 3× or 4×.
func refComputeRatios(c *refSetChain) RatioStats {
	setSize := c.geometry.SetSize()
	var s RatioStats
	for e := c.head; e != nil; e = e.next {
		cnt := e.counter
		if cnt%setSize == 0 && cnt > 0 {
			s.Regular++
			switch cnt {
			case setSize, 2 * setSize:
				s.SmallRegular++
			case 3 * setSize, 4 * setSize:
				s.LargeRegular++
			}
		} else {
			s.Irregular++
		}
	}
	s.Ratio1 = ratio(s.Irregular, s.Regular)
	s.Ratio2 = ratio(s.LargeRegular, s.SmallRegular)
	return s
}

// refClassify applies Table III to the ratio statistics:
//
//	regular      ratio₁ ≤ threshold, ratio₂ < 2
//	irregular#1  ratio₁ ≤ threshold, ratio₂ ≥ 2
//	irregular#2  ratio₁ > threshold
func refClassify(s RatioStats, ratio1Threshold, ratio2Threshold float64) Category {
	if s.Ratio1 > ratio1Threshold {
		return CategoryIrregular2
	}
	if s.Ratio2 >= ratio2Threshold {
		return CategoryIrregular1
	}
	return CategoryRegular
}

// Stats captures a snapshot.
func (h *refHPE) Stats() Stats {
	old, middle, neu := h.chain.partitionLens()
	s := Stats{
		Classified:           h.classified,
		Category:             h.adj.category,
		Ratios:               h.ratios,
		ActiveStrategy:       h.adj.active,
		Faults:               h.faultCount,
		Intervals:            h.chain.curInterval,
		Searches:             h.searches,
		Comparisons:          h.comparisons,
		Divisions:            h.divisionCount,
		Switches:             h.adj.switches,
		Jumps:                append([]uint64(nil), h.adj.jumps...),
		SearchJump:           h.adj.searchJump,
		Timeline:             h.adj.timeline(h.faultCount),
		WrongEvictions:       h.adj.wrongTotal,
		OldSetsAtFirstFull:   h.adj.oldSetsAtFirstFull,
		ChainLen:             h.chain.Len(),
		ChainOld:             old,
		ChainMiddle:          middle,
		ChainNew:             neu,
		LRUFallbacks:         h.lruFallbacks,
		MiddleOrNewEvictions: h.middleOrNewEv,
		HitBatches:           h.hitBatchCount,
		HitBatchDrops:        h.hitBatchDrops,
	}
	if !h.classified {
		s.Category = CategoryUnknown
	}
	if h.searches > 0 {
		s.MeanComparisons = float64(h.comparisons) / float64(h.searches)
	}
	return s
}
