// Reference copies of the map- and pointer-backed policy implementations
// that the page-table rewrites replaced: a map-indexed recency list with
// heap-allocated nodes, LFU's O(resident) scan, RRIP's ring rescans with
// aging, Ideal on container/heap, and map-indexed Random, CLOCK, NRU,
// CLOCK-Pro and SetLRU. They exist only as oracles for
// FuzzPolicyEquivalence, the way sim.Reference is kept for the event engine.

package policy

import (
	"container/heap"
	"fmt"
	"math/bits"
	"math/rand"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// ---- lru.go ----

// refLRUNode is an intrusive doubly-linked-list node. The recency chain is
// ordered head = LRU, tail = MRU.
type refLRUNode struct {
	page       addrspace.PageID
	prev, next *refLRUNode
}

// refRecencyList is a doubly-linked list with O(1) move-to-tail, shared by LRU
// and FIFO (and reused as a building block elsewhere).
type refRecencyList struct {
	head, tail *refLRUNode
	index      map[addrspace.PageID]*refLRUNode
}

func newRefRecencyList() *refRecencyList {
	return &refRecencyList{index: make(map[addrspace.PageID]*refLRUNode)}
}

func (l *refRecencyList) len() int { return len(l.index) }

func (l *refRecencyList) contains(p addrspace.PageID) bool {
	_, ok := l.index[p]
	return ok
}

// pushMRU inserts p at the MRU (tail) position; p must not be present.
func (l *refRecencyList) pushMRU(p addrspace.PageID) {
	if _, ok := l.index[p]; ok {
		panic(fmt.Sprintf("policy: page %v already in recency list", p))
	}
	n := &refLRUNode{page: p}
	l.index[p] = n
	if l.tail == nil {
		l.head, l.tail = n, n
		return
	}
	n.prev = l.tail
	l.tail.next = n
	l.tail = n
}

// touch moves p to the MRU position if present, reporting whether it was.
func (l *refRecencyList) touch(p addrspace.PageID) bool {
	n, ok := l.index[p]
	if !ok {
		return false
	}
	if l.tail == n {
		return true
	}
	l.unlink(n)
	n.prev, n.next = l.tail, nil
	l.tail.next = n
	l.tail = n
	return true
}

func (l *refRecencyList) unlink(n *refLRUNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// remove deletes p, reporting whether it was present.
func (l *refRecencyList) remove(p addrspace.PageID) bool {
	n, ok := l.index[p]
	if !ok {
		return false
	}
	l.unlink(n)
	delete(l.index, p)
	return true
}

// lru returns the LRU (head) page; ok is false when empty.
func (l *refRecencyList) lru() (addrspace.PageID, bool) {
	if l.head == nil {
		return 0, false
	}
	return l.head.page, true
}

// refLRU is the classic least-recently-used page replacement policy, managed at
// page granularity, under the paper's "ideal model": walk hits and faults
// both refresh recency in exact reference order.
type refLRU struct {
	chain *refRecencyList
}

// newRefLRU returns an empty LRU policy.
func newRefLRU() *refLRU { return &refLRU{chain: newRefRecencyList()} }

// Name implements Policy.
func (l *refLRU) Name() string { return "LRU" }

// OnWalkHit implements Policy: refresh recency.
func (l *refLRU) OnWalkHit(p addrspace.PageID, seq int) { l.chain.touch(p) }

// OnFault implements Policy (no-op: the page is inserted on OnMapped).
func (l *refLRU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: insert at MRU.
func (l *refLRU) OnMapped(p addrspace.PageID, seq int) { l.chain.pushMRU(p) }

// SelectVictim implements Policy: the LRU page.
func (l *refLRU) SelectVictim() addrspace.PageID {
	p, ok := l.chain.lru()
	if !ok {
		panic("policy: LRU.SelectVictim on empty chain")
	}
	return p
}

// OnEvicted implements Policy.
func (l *refLRU) OnEvicted(p addrspace.PageID) { l.chain.remove(p) }

// Len returns the number of tracked resident pages.
func (l *refLRU) Len() int { return l.chain.len() }

// refFIFO evicts in arrival order, ignoring hits. Not evaluated in the paper;
// provided as an additional reference point for the ablation benches.
type refFIFO struct {
	chain *refRecencyList
}

// newRefFIFO returns an empty FIFO policy.
func newRefFIFO() *refFIFO { return &refFIFO{chain: newRefRecencyList()} }

// Name implements Policy.
func (f *refFIFO) Name() string { return "FIFO" }

// OnWalkHit implements Policy: FIFO ignores hits.
func (f *refFIFO) OnWalkHit(p addrspace.PageID, seq int) {}

// OnFault implements Policy.
func (f *refFIFO) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (f *refFIFO) OnMapped(p addrspace.PageID, seq int) { f.chain.pushMRU(p) }

// SelectVictim implements Policy: the oldest arrival.
func (f *refFIFO) SelectVictim() addrspace.PageID {
	p, ok := f.chain.lru()
	if !ok {
		panic("policy: FIFO.SelectVictim on empty chain")
	}
	return p
}

// OnEvicted implements Policy.
func (f *refFIFO) OnEvicted(p addrspace.PageID) { f.chain.remove(p) }

// ---- random.go ----

// refRandom evicts a uniformly random resident page. Zheng et al. showed random
// to be competitive with LRU for many UVM workloads; the paper corroborates
// that except on Types IV and VI.
type refRandom struct {
	rng   *rand.Rand
	pages []addrspace.PageID
	pos   map[addrspace.PageID]int
}

// newRefRandom returns a Random policy with a deterministic seed.
func newRefRandom(seed int64) *refRandom {
	return &refRandom{
		rng: rand.New(rand.NewSource(seed)),
		pos: make(map[addrspace.PageID]int),
	}
}

// Name implements Policy.
func (r *refRandom) Name() string { return "Random" }

// OnWalkHit implements Policy: random ignores reference history.
func (r *refRandom) OnWalkHit(p addrspace.PageID, seq int) {}

// OnFault implements Policy.
func (r *refRandom) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: track the resident set.
func (r *refRandom) OnMapped(p addrspace.PageID, seq int) {
	r.pos[p] = len(r.pages)
	r.pages = append(r.pages, p)
}

// SelectVictim implements Policy: uniform over resident pages.
func (r *refRandom) SelectVictim() addrspace.PageID {
	if len(r.pages) == 0 {
		panic("policy: Random.SelectVictim with no resident pages")
	}
	return r.pages[r.rng.Intn(len(r.pages))]
}

// OnEvicted implements Policy: swap-remove from the resident slice.
func (r *refRandom) OnEvicted(p addrspace.PageID) {
	i, ok := r.pos[p]
	if !ok {
		return
	}
	last := len(r.pages) - 1
	r.pages[i] = r.pages[last]
	r.pos[r.pages[i]] = i
	r.pages = r.pages[:last]
	delete(r.pos, p)
}

// Len returns the number of tracked resident pages.
func (r *refRandom) Len() int { return len(r.pages) }

// refLFU evicts the least-frequently-used resident page (ties broken by least
// recency). The paper's related-work section observes that frequency alone
// is not enough for unified memory; LFU is here to demonstrate that.
type refLFU struct {
	counts map[addrspace.PageID]uint64
	chain  *refRecencyList // recency order for tie-breaks; head = refLRU
}

// newRefLFU returns an empty LFU policy.
func newRefLFU() *refLFU {
	return &refLFU{counts: make(map[addrspace.PageID]uint64), chain: newRefRecencyList()}
}

// Name implements Policy.
func (l *refLFU) Name() string { return "LFU" }

// OnWalkHit implements Policy.
func (l *refLFU) OnWalkHit(p addrspace.PageID, seq int) {
	if l.chain.contains(p) {
		l.counts[p]++
		l.chain.touch(p)
	}
}

// OnFault implements Policy.
func (l *refLFU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (l *refLFU) OnMapped(p addrspace.PageID, seq int) {
	l.counts[p] = 1
	l.chain.pushMRU(p)
}

// SelectVictim implements Policy: minimum count, least recent among ties.
// O(resident) scan — LFU is a reference baseline, not a production policy.
func (l *refLFU) SelectVictim() addrspace.PageID {
	var victim addrspace.PageID
	best := uint64(0)
	found := false
	for n := l.chain.head; n != nil; n = n.next {
		c := l.counts[n.page]
		if !found || c < best {
			victim, best, found = n.page, c, true
		}
	}
	if !found {
		panic("policy: LFU.SelectVictim with no resident pages")
	}
	return victim
}

// OnEvicted implements Policy.
func (l *refLFU) OnEvicted(p addrspace.PageID) {
	l.chain.remove(p)
	delete(l.counts, p)
}

// ---- rrip.go ----

type refRRIPEntry struct {
	page  addrspace.PageID
	rrpv  uint8
	delay uint64 // global page-fault number at insertion
	valid bool
}

// refRRIP is the paper's enhanced RRIP-FP (frequency priority) policy: an M-bit
// RRPV per page, decremented on hit; eviction scans CLOCK-style for a page
// with the distant prediction whose delay requirement is met, aging all
// pages when none qualifies.
type refRRIP struct {
	cfg        RRIPConfig
	maxRRPV    uint8
	ring       []refRRIPEntry
	index      map[addrspace.PageID]int
	freeSlots  []int
	faultCount uint64
}

// newRefRRIP returns an empty RRIP policy with the given configuration.
func newRefRRIP(cfg RRIPConfig) *refRRIP {
	if cfg.MBits == 0 || cfg.MBits > 8 {
		panic(fmt.Sprintf("policy: RRIP MBits %d out of range [1,8]", cfg.MBits))
	}
	return &refRRIP{
		cfg:     cfg,
		maxRRPV: uint8(1<<cfg.MBits - 1),
		index:   make(map[addrspace.PageID]int),
	}
}

// Name implements Policy.
func (r *refRRIP) Name() string { return "RRIP" }

// OnWalkHit implements Policy: frequency priority decrements RRPV.
func (r *refRRIP) OnWalkHit(p addrspace.PageID, seq int) {
	if i, ok := r.index[p]; ok && r.ring[i].rrpv > 0 {
		r.ring[i].rrpv--
	}
}

// OnFault implements Policy: advance the global fault counter.
func (r *refRRIP) OnFault(p addrspace.PageID, seq int) { r.faultCount++ }

// OnMapped implements Policy: insert with the configured prediction.
func (r *refRRIP) OnMapped(p addrspace.PageID, seq int) {
	rrpv := r.maxRRPV - 1
	if r.cfg.InsertDistant {
		rrpv = r.maxRRPV
	}
	e := refRRIPEntry{page: p, rrpv: rrpv, delay: r.faultCount, valid: true}
	// Reuse a freed slot when one exists; otherwise append.
	if n := len(r.freeSlots); n > 0 {
		i := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		r.ring[i] = e
		r.index[p] = i
		return
	}
	r.index[p] = len(r.ring)
	r.ring = append(r.ring, e)
}

// eligible reports whether the entry meets the delay requirement: the margin
// between the current fault number and the page's delay field is at least
// the threshold.
func (r *refRRIP) eligible(e *refRRIPEntry) bool {
	return r.faultCount-e.delay >= r.cfg.DelayThreshold
}

// SelectVictim implements Policy. Like SRRIP, the scan starts from slot 0
// every time (not from a persistent hand) and takes the first valid entry
// with RRPV == max that meets the delay requirement; if a full sweep finds
// none, every RRPV is incremented (aging) and the scan repeats. If aging
// alone cannot produce a candidate (every page is too young), the delay
// requirement is relaxed — the driver must evict something.
//
// The fixed-start scan matters: together with slot reuse it concentrates
// the churn in low slots, which is what lets the delay field retain part of
// the working set on thrashing patterns instead of degenerating to LRU.
func (r *refRRIP) SelectVictim() addrspace.PageID {
	if len(r.index) == 0 {
		panic("policy: RRIP.SelectVictim with no resident pages")
	}
	// The original counted rounds in a uint8, which never exceeds a max
	// RRPV of 255, so with MBits 8 and no eligible page it never reached
	// the relaxed scan. Counting in an int runs the intended max+1 rounds.
	for round := 0; round <= int(r.maxRRPV); round++ {
		if p, ok := r.scan(true); ok {
			return p
		}
		// Age: increment every RRPV below max.
		for i := range r.ring {
			if r.ring[i].valid && r.ring[i].rrpv < r.maxRRPV {
				r.ring[i].rrpv++
			}
		}
	}
	// All RRPVs are max but nothing satisfies the delay requirement: relax it.
	if p, ok := r.scan(false); ok {
		return p
	}
	panic("policy: RRIP.SelectVictim scan failed despite resident pages")
}

// scan sweeps the ring once from slot 0 looking for a distant-prediction
// entry; withDelay additionally requires the delay margin.
func (r *refRRIP) scan(withDelay bool) (addrspace.PageID, bool) {
	for i := range r.ring {
		e := &r.ring[i]
		if !e.valid || e.rrpv != r.maxRRPV {
			continue
		}
		if withDelay && !r.eligible(e) {
			continue
		}
		return e.page, true
	}
	return 0, false
}

// OnEvicted implements Policy.
func (r *refRRIP) OnEvicted(p addrspace.PageID) {
	if i, ok := r.index[p]; ok {
		r.ring[i].valid = false
		r.freeSlots = append(r.freeSlots, i)
		delete(r.index, p)
	}
}

// Len returns the number of tracked resident pages.
func (r *refRRIP) Len() int { return len(r.index) }

// ---- ideal.go ----

// refIdeal is the paper's offline upper-bound policy, "similar to Belady's MIN
// algorithm": on eviction it discards the resident page whose next use in
// the canonical reference string lies furthest in the future (or never
// comes). It consumes a FutureIndex built over the workload trace; the
// sequence numbers the driver passes with each event anchor "now".
//
// Implementation: a lazy max-heap keyed by next-use position selects
// victims; a twin min-heap (the expiry queue) catches entries whose recorded
// next use slipped behind the fault frontier without the policy seeing the
// touch (it was absorbed by the TLBs) — those entries are recomputed before
// any victim decision, otherwise dead pages would hide at the bottom of the
// max-heap looking "about to be used". Stale duplicates are discarded when
// popped. The fault frontier, not walk hits, advances "now": the GPU runs
// ahead of its faults, and hits from run-ahead would make genuinely pending
// uses look like the past.
type refIdeal struct {
	future *trace.FutureIndex
	// nextUse holds the authoritative next-use position per resident page.
	nextUse map[addrspace.PageID]int
	victims refIdealHeap // max-heap: furthest next use on top
	expiry  refIdealHeap // min-heap: soonest recorded next use on top
	now     int
}

type refIdealHeapEntry struct {
	page addrspace.PageID
	next int
}

type refIdealHeap struct {
	entries []refIdealHeapEntry
	min     bool
}

func (h refIdealHeap) Len() int { return len(h.entries) }
func (h refIdealHeap) Less(i, j int) bool {
	if h.min {
		return h.entries[i].next < h.entries[j].next
	}
	return h.entries[i].next > h.entries[j].next
}
func (h refIdealHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *refIdealHeap) Push(x any)   { h.entries = append(h.entries, x.(refIdealHeapEntry)) }
func (h *refIdealHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	return e
}

// newRefIdeal returns an Ideal policy with future knowledge of the given trace.
func newRefIdeal(fi *trace.FutureIndex) *refIdeal {
	return &refIdeal{
		future:  fi,
		nextUse: make(map[addrspace.PageID]int),
		expiry:  refIdealHeap{min: true},
	}
}

// Name implements Policy.
func (b *refIdeal) Name() string { return "Ideal" }

func (b *refIdeal) refresh(p addrspace.PageID, seq int) {
	next, ok := b.future.NextUse(p, seq)
	if !ok {
		next = neverUsedAgain
	}
	b.nextUse[p] = next
	e := refIdealHeapEntry{page: p, next: next}
	heap.Push(&b.victims, e)
	if next != neverUsedAgain {
		heap.Push(&b.expiry, e)
	}
}

// OnWalkHit implements Policy: recompute the page's next use.
func (b *refIdeal) OnWalkHit(p addrspace.PageID, seq int) {
	if _, resident := b.nextUse[p]; resident {
		b.refresh(p, seq)
	}
}

// OnFault implements Policy: advance the fault frontier.
func (b *refIdeal) OnFault(p addrspace.PageID, seq int) {
	if seq > b.now {
		b.now = seq
	}
}

// OnMapped implements Policy.
func (b *refIdeal) OnMapped(p addrspace.PageID, seq int) { b.refresh(p, seq) }

// expire recomputes every live entry whose recorded next use fell behind the
// fault frontier (the touch happened, unseen, inside the TLBs).
func (b *refIdeal) expire() {
	for b.expiry.Len() > 0 {
		top := b.expiry.entries[0]
		if top.next >= b.now {
			return
		}
		heap.Pop(&b.expiry)
		current, resident := b.nextUse[top.page]
		if !resident || current != top.next {
			continue // stale duplicate
		}
		b.refresh(top.page, b.now-1) // first use at or after now
	}
}

// SelectVictim implements Policy: the resident page with the furthest (or
// absent) next use.
func (b *refIdeal) SelectVictim() addrspace.PageID {
	b.expire()
	for b.victims.Len() > 0 {
		top := b.victims.entries[0]
		current, resident := b.nextUse[top.page]
		if !resident || current != top.next {
			heap.Pop(&b.victims) // stale duplicate
			continue
		}
		return top.page
	}
	panic("policy: Ideal.SelectVictim with no resident pages")
}

// OnEvicted implements Policy.
func (b *refIdeal) OnEvicted(p addrspace.PageID) { delete(b.nextUse, p) }

// Len returns the number of tracked resident pages.
func (b *refIdeal) Len() int { return len(b.nextUse) }

// ---- clock.go ----

// refClock is the classic CLOCK algorithm — the one-bit LRU approximation the
// paper's related-work section names as what real kernels deploy instead of
// true LRU. A hand sweeps the resident ring; referenced pages get a second
// chance (bit cleared), unreferenced pages are victims. It inherits LRU's
// thrashing pathology, which is exactly why the paper discusses CLOCK-Pro.
type refClock struct {
	ring  []refClockEntry
	index map[addrspace.PageID]int
	free  []int
	hand  int
}

type refClockEntry struct {
	page  addrspace.PageID
	ref   bool
	valid bool
}

// newRefClock returns an empty CLOCK policy.
func newRefClock() *refClock {
	return &refClock{index: make(map[addrspace.PageID]int)}
}

// Name implements Policy.
func (c *refClock) Name() string { return "CLOCK" }

// OnWalkHit implements Policy: set the reference bit.
func (c *refClock) OnWalkHit(p addrspace.PageID, seq int) {
	if i, ok := c.index[p]; ok {
		c.ring[i].ref = true
	}
}

// OnFault implements Policy.
func (c *refClock) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: insert with the reference bit set (it is being
// used right now).
func (c *refClock) OnMapped(p addrspace.PageID, seq int) {
	e := refClockEntry{page: p, ref: true, valid: true}
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.ring[i] = e
		c.index[p] = i
		return
	}
	c.index[p] = len(c.ring)
	c.ring = append(c.ring, e)
}

// SelectVictim implements Policy: sweep the hand, granting second chances.
func (c *refClock) SelectVictim() addrspace.PageID {
	if len(c.index) == 0 {
		panic("policy: CLOCK.SelectVictim with no resident pages")
	}
	n := len(c.ring)
	// At most two revolutions: the first may clear every bit, the second
	// must find a victim.
	for sweep := 0; sweep < 2*n+1; sweep++ {
		e := &c.ring[c.hand%n]
		i := c.hand % n
		c.hand = (c.hand + 1) % n
		if !e.valid {
			continue
		}
		if e.ref {
			e.ref = false
			continue
		}
		_ = i
		return e.page
	}
	panic("policy: CLOCK hand failed to find a victim")
}

// OnEvicted implements Policy.
func (c *refClock) OnEvicted(p addrspace.PageID) {
	if i, ok := c.index[p]; ok {
		c.ring[i].valid = false
		c.free = append(c.free, i)
		delete(c.index, p)
	}
}

// Len returns the number of tracked resident pages.
func (c *refClock) Len() int { return len(c.index) }

// refNRU is Not-Recently-Used: evict any page whose reference bit is clear,
// scanning in arrival order; when every page is referenced, clear all bits
// and take the oldest. (The classical scheme also consults a dirty bit; the
// simulator has no write tracking, so this is the reference-bit-only
// variant.) Like CLOCK, it approximates LRU and shares its weaknesses.
type refNRU struct {
	chain *refRecencyList // arrival order: head = oldest
	ref   map[addrspace.PageID]bool
}

// newRefNRU returns an empty NRU policy.
func newRefNRU() *refNRU {
	return &refNRU{chain: newRefRecencyList(), ref: make(map[addrspace.PageID]bool)}
}

// Name implements Policy.
func (n *refNRU) Name() string { return "NRU" }

// OnWalkHit implements Policy.
func (n *refNRU) OnWalkHit(p addrspace.PageID, seq int) {
	if n.chain.contains(p) {
		n.ref[p] = true
	}
}

// OnFault implements Policy.
func (n *refNRU) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy.
func (n *refNRU) OnMapped(p addrspace.PageID, seq int) {
	n.chain.pushMRU(p)
	n.ref[p] = true
}

// SelectVictim implements Policy.
func (n *refNRU) SelectVictim() addrspace.PageID {
	if n.chain.len() == 0 {
		panic("policy: NRU.SelectVictim with no resident pages")
	}
	for node := n.chain.head; node != nil; node = node.next {
		if !n.ref[node.page] {
			return node.page
		}
	}
	// Everyone was recently used: clear the epoch and take the oldest.
	for node := n.chain.head; node != nil; node = node.next {
		n.ref[node.page] = false
	}
	return n.chain.head.page
}

// OnEvicted implements Policy.
func (n *refNRU) OnEvicted(p addrspace.PageID) {
	n.chain.remove(p)
	delete(n.ref, p)
}

// ---- clockpro.go ----

type refCPNode struct {
	page       addrspace.PageID
	state      pageState
	ref        bool
	inTest     bool
	prev, next *refCPNode
}

// refClockPro implements the CLOCK-Pro replacement algorithm (Jiang, Chen,
// Zhang; USENIX ATC 2005), adapted to UVM page eviction the way the paper
// configures it: the memory allocation for cold pages m_c is fixed at 128
// pages "because this value can alleviate instant thrashing" (§V-B), so the
// original's adaptive m_c tuning is disabled.
//
// All page metadata (resident hot, resident cold, and non-resident cold
// pages in their test period) lives on one circular list; three hands sweep
// it: HAND_cold finds eviction victims, HAND_hot demotes hot pages, and
// HAND_test expires test periods to bound non-resident metadata.
type refClockPro struct {
	capacity int // m: total resident pages
	coldTgt  int // m_c: fixed target for resident cold pages

	index  map[addrspace.PageID]*refCPNode
	oldest *refCPNode // ring anchor: the oldest entry; .next walks old → new

	handHot  *refCPNode
	handCold *refCPNode
	handTest *refCPNode

	nHot     int
	nColdRes int
	nNonRes  int
}

// newRefClockPro returns a CLOCK-Pro policy for a memory of capacityPages with
// the given fixed cold-page allocation (use DefaultColdTarget for the
// paper's setting). coldTarget is clamped to [1, capacityPages].
func newRefClockPro(capacityPages, coldTarget int) *refClockPro {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("policy: ClockPro capacity %d must be positive", capacityPages))
	}
	if coldTarget < 1 {
		coldTarget = 1
	}
	if coldTarget > capacityPages {
		coldTarget = capacityPages
	}
	return &refClockPro{
		capacity: capacityPages,
		coldTgt:  coldTarget,
		index:    make(map[addrspace.PageID]*refCPNode),
	}
}

// Name implements Policy.
func (c *refClockPro) Name() string { return "CLOCK-Pro" }

// --- circular list plumbing -------------------------------------------------

// insertNewest links n at the newest position (just before the oldest entry
// in .next order, i.e. the CLOCK list head).
func (c *refClockPro) insertNewest(n *refCPNode) {
	if c.oldest == nil {
		n.prev, n.next = n, n
		c.oldest = n
		return
	}
	newest := c.oldest.prev
	n.next = c.oldest
	n.prev = newest
	newest.next = n
	c.oldest.prev = n
}

// unlinkNode removes n from the ring, repointing hands and head past it.
func (c *refClockPro) unlinkNode(n *refCPNode) {
	c.repointPast(&c.handHot, n)
	c.repointPast(&c.handCold, n)
	c.repointPast(&c.handTest, n)
	c.repointPast(&c.oldest, n)
	if n.next == n {
		// Last node.
		n.prev, n.next = nil, nil
		return
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

// repointPast moves a hand (or the head) off n before it leaves the ring.
func (c *refClockPro) repointPast(h **refCPNode, n *refCPNode) {
	if *h != n {
		return
	}
	if n.next == n {
		*h = nil
	} else {
		*h = n.next
	}
}

func (c *refClockPro) removeEntry(n *refCPNode) {
	switch n.state {
	case stateHot:
		c.nHot--
	case stateColdResident:
		c.nColdRes--
	case stateColdNonResident:
		c.nNonRes--
	}
	c.unlinkNode(n)
	delete(c.index, n.page)
}

// --- the three hands ---------------------------------------------------------

// runHandTest terminates the test period of the cold page under HAND_test,
// removing non-resident entries, then advances.
func (c *refClockPro) runHandTest() {
	if c.handTest == nil {
		c.handTest = c.oldest
	}
	for sweep := 0; c.handTest != nil && sweep < 2*len(c.index)+2; sweep++ {
		n := c.handTest
		c.handTest = n.next
		if n.state == stateColdNonResident {
			c.removeEntry(n)
			return
		}
		if n.state == stateColdResident && n.inTest {
			n.inTest = false
			return
		}
	}
}

// runHandHot demotes one hot page to cold (clearing referenced hot pages as
// it passes) and expires test periods of cold pages it sweeps over.
func (c *refClockPro) runHandHot() {
	if c.handHot == nil {
		c.handHot = c.oldest
	}
	limit := 2*len(c.index) + 2
	for sweep := 0; c.handHot != nil && sweep < limit; sweep++ {
		n := c.handHot
		c.handHot = n.next
		switch n.state {
		case stateHot:
			if n.ref {
				n.ref = false
				continue
			}
			n.state = stateColdResident
			n.inTest = false
			c.nHot--
			c.nColdRes++
			return
		case stateColdNonResident:
			c.removeEntry(n)
		case stateColdResident:
			if n.inTest {
				n.inTest = false
			}
		}
	}
}

// victimSearch runs HAND_cold until it identifies a resident cold page with
// a clear reference bit, performing promotions and rotations on the way.
// It does not unmap the page — the driver does that and then calls OnEvicted.
func (c *refClockPro) victimSearch() *refCPNode {
	// Ensure some resident cold page exists; demote hot pages if not.
	for c.nColdRes == 0 && c.nHot > 0 {
		c.runHandHot()
	}
	if c.handCold == nil {
		c.handCold = c.oldest
	}
	limit := 4*len(c.index) + 4
	for sweep := 0; sweep < limit; sweep++ {
		n := c.handCold
		c.handCold = n.next
		if n.state != stateColdResident {
			continue
		}
		if n.ref {
			if n.inTest {
				// Re-referenced within its test period: promote to hot.
				n.ref = false
				n.inTest = false
				n.state = stateHot
				c.nColdRes--
				c.nHot++
				if c.nHot > c.capacity-c.coldTgt {
					c.runHandHot()
				}
			} else {
				// Re-referenced after test expiry: stay cold, restart test.
				n.ref = false
				n.inTest = true
				c.unlinkNode(n)
				c.insertNewest(n)
			}
			// Promotion may have emptied the cold set.
			for c.nColdRes == 0 && c.nHot > 0 {
				c.runHandHot()
			}
			continue
		}
		return n
	}
	panic("policy: ClockPro victim search did not terminate")
}

// --- Policy interface --------------------------------------------------------

// OnWalkHit implements Policy: set the reference bit.
func (c *refClockPro) OnWalkHit(p addrspace.PageID, seq int) {
	if n, ok := c.index[p]; ok && n.state != stateColdNonResident {
		n.ref = true
	}
}

// OnFault implements Policy (handled in OnMapped).
func (c *refClockPro) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: a fault on a page still in its test period
// proves a short reuse distance — insert it hot; otherwise insert it cold
// and start its test period.
func (c *refClockPro) OnMapped(p addrspace.PageID, seq int) {
	if n, ok := c.index[p]; ok {
		if n.state != stateColdNonResident {
			panic(fmt.Sprintf("policy: ClockPro mapping already-resident %v", p))
		}
		// Short reuse distance: promote.
		c.removeEntry(n)
		hot := &refCPNode{page: p, state: stateHot}
		c.insertNewest(hot)
		c.index[p] = hot
		c.nHot++
		for c.nHot > c.capacity-c.coldTgt {
			before := c.nHot
			c.runHandHot()
			if c.nHot == before {
				break
			}
		}
		return
	}
	n := &refCPNode{page: p, state: stateColdResident, inTest: true}
	c.insertNewest(n)
	c.index[p] = n
	c.nColdRes++
	// Bound non-resident metadata at the memory size.
	for c.nNonRes > c.capacity {
		before := c.nNonRes
		c.runHandTest()
		if c.nNonRes == before {
			break
		}
	}
}

// SelectVictim implements Policy.
func (c *refClockPro) SelectVictim() addrspace.PageID {
	if c.nColdRes+c.nHot == 0 {
		panic("policy: ClockPro.SelectVictim with no resident pages")
	}
	return c.victimSearch().page
}

// OnEvicted implements Policy: the page becomes non-resident; if its test
// period is running, keep the metadata so a quick refault promotes it.
func (c *refClockPro) OnEvicted(p addrspace.PageID) {
	n, ok := c.index[p]
	if !ok || n.state == stateColdNonResident {
		return
	}
	if n.state == stateHot {
		// The driver may evict a page the policy would not have chosen (it
		// always honours SelectVictim, so this is defensive).
		c.nHot--
		c.nColdRes++
		n.state = stateColdResident
	}
	if n.inTest {
		n.state = stateColdNonResident
		n.ref = false
		c.nColdRes--
		c.nNonRes++
		return
	}
	c.removeEntry(n)
}

// Counts reports (hot, resident-cold, non-resident) entry counts, for tests.
func (c *refClockPro) Counts() (hot, coldRes, nonRes int) {
	return c.nHot, c.nColdRes, c.nNonRes
}

// ---- setlru.go ----

// refSetLRU is an ablation policy, not part of the paper's comparison set: LRU
// managed at page-set granularity, with none of HPE's partitions,
// classification, or dynamic adjustment. A touch to any page refreshes the
// whole set; the victim is the LRU set's lowest-addressed resident page,
// drained one page per eviction exactly as HPE drains its victims.
//
// Comparing SetLRU against page-level LRU and against HPE separates the two
// ingredients of HPE's win: how much comes merely from coarser (set-level)
// recency, and how much from the old/middle/new machinery on top.
type refSetLRU struct {
	geometry addrspace.Geometry
	chain    *refRecencyList // of set-ids encoded as PageID keys; head = refLRU
	resident map[addrspace.SetID]uint32
}

// newRefSetLRU returns a set-granularity LRU over the given geometry.
func newRefSetLRU(g addrspace.Geometry) *refSetLRU {
	return &refSetLRU{
		geometry: g,
		chain:    newRefRecencyList(),
		resident: make(map[addrspace.SetID]uint32),
	}
}

// Name implements Policy.
func (s *refSetLRU) Name() string { return "SetLRU" }

func (s *refSetLRU) touch(id addrspace.SetID) {
	if !s.chain.touch(key(id)) {
		s.chain.pushMRU(key(id))
	}
}

// OnWalkHit implements Policy: refresh the whole set.
func (s *refSetLRU) OnWalkHit(p addrspace.PageID, seq int) {
	id := s.geometry.SetOf(p)
	if _, ok := s.resident[id]; ok {
		s.touch(id)
	}
}

// OnFault implements Policy: faults refresh recency too.
func (s *refSetLRU) OnFault(p addrspace.PageID, seq int) {
	s.touch(s.geometry.SetOf(p))
}

// OnMapped implements Policy: mark the page resident in its set.
func (s *refSetLRU) OnMapped(p addrspace.PageID, seq int) {
	id := s.geometry.SetOf(p)
	s.resident[id] |= 1 << uint(s.geometry.Offset(p))
	s.touch(id)
}

// SelectVictim implements Policy: the LRU set's lowest resident page.
func (s *refSetLRU) SelectVictim() addrspace.PageID {
	for n := s.chain.head; n != nil; n = n.next {
		id := addrspace.SetID(n.page)
		if mask := s.resident[id]; mask != 0 {
			return s.geometry.PageAt(id, bits.TrailingZeros32(mask))
		}
	}
	panic("policy: SetLRU.SelectVictim with no resident pages")
}

// OnEvicted implements Policy: clear the page; drop the set when drained.
func (s *refSetLRU) OnEvicted(p addrspace.PageID) {
	id := s.geometry.SetOf(p)
	mask, ok := s.resident[id]
	if !ok {
		return
	}
	mask &^= 1 << uint(s.geometry.Offset(p))
	if mask == 0 {
		delete(s.resident, id)
		s.chain.remove(key(id))
		return
	}
	s.resident[id] = mask
}

// Sets returns the number of tracked sets (for tests).
func (s *refSetLRU) Sets() int { return len(s.resident) }
