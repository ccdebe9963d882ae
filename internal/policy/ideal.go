package policy

import (
	"math"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
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
	nextUse *pagetable.Table[int]
	victims idealHeap // max-heap: furthest next use on top
	expiry  idealHeap // min-heap: soonest recorded next use on top
	now     int
}

const neverUsedAgain = math.MaxInt

type idealHeapEntry struct {
	page addrspace.PageID
	next int
}

// idealHeap is a binary heap of entries by value. push and pop repeat
// container/heap's sift steps exactly: many pages tie at neverUsedAgain,
// and the heap's order among ties decides which of them is the victim.
type idealHeap struct {
	entries []idealHeapEntry
	min     bool
}

func (h *idealHeap) len() int { return len(h.entries) }

func (h *idealHeap) less(i, j int) bool {
	if h.min {
		return h.entries[i].next < h.entries[j].next
	}
	return h.entries[i].next > h.entries[j].next
}

func (h *idealHeap) swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

// push adds e and sifts it up.
func (h *idealHeap) push(e idealHeapEntry) {
	h.entries = append(h.entries, e)
	for j := len(h.entries) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// pop removes the top entry: it swaps in the last entry and sifts it down.
func (h *idealHeap) pop() {
	n := len(h.entries) - 1
	h.swap(0, n)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	h.entries = h.entries[:n]
}

// NewIdeal returns an Ideal policy with future knowledge of the given trace.
// Both heaps start with room for one entry per page of the trace, which
// skips their early regrowth: each page pushes a victims entry when it is
// first mapped.
func NewIdeal(fi *trace.FutureIndex) *Ideal {
	return &Ideal{
		future:  fi,
		nextUse: pagetable.New[int](),
		victims: idealHeap{entries: make([]idealHeapEntry, 0, fi.Pages())},
		expiry:  idealHeap{entries: make([]idealHeapEntry, 0, fi.Pages()), min: true},
	}
}

// Name implements Policy.
func (b *Ideal) Name() string { return "Ideal" }

func (b *Ideal) refresh(p addrspace.PageID, seq int) {
	next, ok := b.future.NextUse(p, seq)
	if !ok {
		next = neverUsedAgain
	}
	b.nextUse.Put(p, next)
	e := idealHeapEntry{page: p, next: next}
	b.victims.push(e)
	if next != neverUsedAgain {
		b.expiry.push(e)
	}
}

// OnWalkHit implements Policy: recompute the page's next use.
func (b *Ideal) OnWalkHit(p addrspace.PageID, seq int) {
	if _, resident := b.nextUse.Get(p); resident {
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

// live reports whether e is p's current entry rather than a stale duplicate.
func (b *Ideal) live(e idealHeapEntry) bool {
	current, resident := b.nextUse.Get(e.page)
	return resident && current == e.next
}

// expire recomputes every live entry whose recorded next use fell behind the
// fault frontier (the touch happened, unseen, inside the TLBs).
func (b *Ideal) expire() {
	for b.expiry.len() > 0 {
		top := b.expiry.entries[0]
		if top.next >= b.now {
			return
		}
		b.expiry.pop()
		if b.live(top) {
			b.refresh(top.page, b.now-1) // first use at or after now
		}
	}
}

// SelectVictim implements Policy: the resident page with the furthest (or
// absent) next use.
func (b *Ideal) SelectVictim() addrspace.PageID {
	b.expire()
	for b.victims.len() > 0 {
		top := b.victims.entries[0]
		if b.live(top) {
			return top.page
		}
		b.victims.pop() // stale duplicate
	}
	panic("policy: Ideal.SelectVictim with no resident pages")
}

// OnEvicted implements Policy.
func (b *Ideal) OnEvicted(p addrspace.PageID) { b.nextUse.Delete(p) }

// Len returns the number of tracked resident pages.
func (b *Ideal) Len() int { return b.nextUse.Len() }
