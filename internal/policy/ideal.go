package policy

import (
	"container/heap"
	"math"

	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// Ideal is the paper's offline upper-bound policy, "similar to Belady's MIN
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
type Ideal struct {
	future *trace.FutureIndex
	// nextUse holds the authoritative next-use position per resident page.
	nextUse map[addrspace.PageID]int
	victims idealHeap // max-heap: furthest next use on top
	expiry  idealHeap // min-heap: soonest recorded next use on top
	now     int
}

const neverUsedAgain = math.MaxInt

type idealHeapEntry struct {
	page addrspace.PageID
	next int
}

type idealHeap struct {
	entries []idealHeapEntry
	min     bool
}

func (h idealHeap) Len() int { return len(h.entries) }
func (h idealHeap) Less(i, j int) bool {
	if h.min {
		return h.entries[i].next < h.entries[j].next
	}
	return h.entries[i].next > h.entries[j].next
}
func (h idealHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *idealHeap) Push(x any)   { h.entries = append(h.entries, x.(idealHeapEntry)) }
func (h *idealHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	return e
}

// NewIdeal returns an Ideal policy with future knowledge of the given trace.
func NewIdeal(fi *trace.FutureIndex) *Ideal {
	return &Ideal{
		future:  fi,
		nextUse: make(map[addrspace.PageID]int),
		expiry:  idealHeap{min: true},
	}
}

// Name implements Policy.
func (b *Ideal) Name() string { return "Ideal" }

func (b *Ideal) refresh(p addrspace.PageID, seq int) {
	next, ok := b.future.NextUse(p, seq)
	if !ok {
		next = neverUsedAgain
	}
	b.nextUse[p] = next
	e := idealHeapEntry{page: p, next: next}
	//lint:ignore hpelint/hotalloc container/heap's interface{} API boxes by design; ideal is the offline oracle baseline
	heap.Push(&b.victims, e)
	if next != neverUsedAgain {
		//lint:ignore hpelint/hotalloc container/heap's interface{} API boxes by design; ideal is the offline oracle baseline
		heap.Push(&b.expiry, e)
	}
}

// OnWalkHit implements Policy: recompute the page's next use.
func (b *Ideal) OnWalkHit(p addrspace.PageID, seq int) {
	if _, resident := b.nextUse[p]; resident {
		b.refresh(p, seq)
	}
}

// OnFault implements Policy: advance the fault frontier.
func (b *Ideal) OnFault(p addrspace.PageID, seq int) {
	if seq > b.now {
		b.now = seq
	}
}

// OnMapped implements Policy.
func (b *Ideal) OnMapped(p addrspace.PageID, seq int) { b.refresh(p, seq) }

// expire recomputes every live entry whose recorded next use fell behind the
// fault frontier (the touch happened, unseen, inside the TLBs).
func (b *Ideal) expire() {
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
func (b *Ideal) SelectVictim() addrspace.PageID {
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
func (b *Ideal) OnEvicted(p addrspace.PageID) { delete(b.nextUse, p) }

// Len returns the number of tracked resident pages.
func (b *Ideal) Len() int { return len(b.nextUse) }
