// Package tlb implements the simulator's one set-associative, LRU-replaced
// tag array. It models the translation lookaside buffers of the paper's
// baseline architecture (Fig. 1 / Table I): per-SM private L1 TLBs backed
// by a shared L2 TLB, with invalidation on page eviction. The Table I data
// caches (internal/cache, keyed by line) and the page-walk cache of the
// rejected translation design (internal/ptw, keyed by level and prefix)
// are built on the same array.
//
// The array stores only tags; the simulator needs hit/miss behaviour, not
// the translation or the data, because policy visibility (which references
// reach the page walker) is what the paper's mechanisms key off.
//
// The array has two parts. Slots is the LRU slot array: sets × ways
// entries, each set an intrusive doubly-linked list ordered LRU → MRU with
// invalid entries parked at the LRU end, addressed by slot number. It does
// not know how a page finds its slot. TLB pairs Slots with a page → slot
// index (pagetable.Map, the open-addressing table the page tables use as
// their top level), so every Lookup, Fill and Invalidate is O(1); the
// simulator's TLBs skip that index and keep each page's slots in its own
// page record (internal/gpu). reference_test.go keeps a
// timestamp-per-entry scan as the differential oracle.
package tlb

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// Slots is an LRU slot array with hit/miss/fill/invalidate counters. Slot
// numbers are stable: a page keeps its slot until it is replaced or
// invalidated.
type Slots struct {
	sets    uint64
	pow2    bool    // sets is a power of two: a fill masks instead of dividing
	entries []entry // sets × ways, row-major
	head    []int32 // per-set list head: invalid-first, then LRU
	tail    []int32 // per-set list tail: MRU

	hits      uint64
	misses    uint64
	fills     uint64
	invalides uint64
}

type entry struct {
	page       addrspace.PageID
	prev, next int32 // intrusive per-set LRU list, -1 terminated
	set        int32 // fixed at construction: no division on the hot path
	valid      bool
}

// NewSlots returns an all-invalid slot array with the given total entry
// count and associativity. entries must be divisible by ways; ways ==
// entries gives a fully associative array. name labels the geometry panic.
func NewSlots(name string, entries, ways int) *Slots {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb %s: bad geometry entries=%d ways=%d", name, entries, ways))
	}
	a := &Slots{
		sets:    uint64(entries / ways),
		entries: make([]entry, entries),
		head:    make([]int32, entries/ways),
		tail:    make([]int32, entries/ways),
	}
	a.pow2 = a.sets&(a.sets-1) == 0
	// Chain each set's entries in row order, all invalid.
	for s := 0; s < int(a.sets); s++ {
		first := int32(s * ways)
		last := first + int32(ways) - 1
		a.head[s] = first
		a.tail[s] = last
		for i := first; i <= last; i++ {
			e := &a.entries[i]
			e.prev, e.next, e.set = i-1, i+1, int32(s)
		}
		a.entries[first].prev = -1
		a.entries[last].next = -1
	}
	return a
}

// unlink removes entry i from its set's list.
func (a *Slots) unlink(s, i int32) {
	e := &a.entries[i]
	if e.prev >= 0 {
		a.entries[e.prev].next = e.next
	} else {
		a.head[s] = e.next
	}
	if e.next >= 0 {
		a.entries[e.next].prev = e.prev
	} else {
		a.tail[s] = e.prev
	}
}

// Touch marks slot i most-recently-used without counting a hit (a re-fill
// of a present page).
func (a *Slots) Touch(i int32) {
	s := a.entries[i].set
	if a.tail[s] == i {
		return
	}
	a.unlink(s, i)
	e := &a.entries[i]
	e.prev = a.tail[s]
	e.next = -1
	a.entries[a.tail[s]].next = i
	a.tail[s] = i
}

// Hit counts a lookup that found its page in slot i and marks it
// most-recently-used.
func (a *Slots) Hit(i int32) {
	a.hits++
	a.Touch(i)
}

// Miss counts a lookup that found no slot.
func (a *Slots) Miss() { a.misses++ }

// Insert installs page p, which the caller knows holds no slot, in the
// reuse-first entry of its set: an invalid one if any, else the LRU way.
// It returns p's slot and, when a valid entry was replaced, the page that
// lost its slot.
func (a *Slots) Insert(p addrspace.PageID) (slot int32, evicted addrspace.PageID, replaced bool) {
	s := uint64(p) & (a.sets - 1)
	if !a.pow2 {
		s = uint64(p) % a.sets
	}
	slot = a.head[s]
	e := &a.entries[slot]
	evicted, replaced = e.page, e.valid
	e.page = p
	e.valid = true
	a.Touch(slot)
	a.fills++
	return slot, evicted, replaced
}

// Invalidate empties slot i (page eviction shootdown) and parks it at the
// reuse-first end of its set.
func (a *Slots) Invalidate(i int32) {
	s := a.entries[i].set
	a.entries[i].valid = false
	a.invalides++
	if a.head[s] == i {
		return
	}
	a.unlink(s, i)
	e := &a.entries[i]
	e.next = a.head[s]
	e.prev = -1
	a.entries[a.head[s]].prev = i
	a.head[s] = i
}

// Len returns the number of slots.
func (a *Slots) Len() int { return len(a.entries) }

// Page returns the page in slot i and whether the slot is valid.
func (a *Slots) Page(i int32) (addrspace.PageID, bool) {
	e := &a.entries[i]
	return e.page, e.valid
}

// Stats returns cumulative hit/miss/fill/invalidate counts.
func (a *Slots) Stats() (hits, misses, fills, invalidates uint64) {
	return a.hits, a.misses, a.fills, a.invalides
}

// TLB is a set-associative, LRU-replaced tag array: Slots plus a page →
// slot index. Tags are PageIDs; the data cache and the page-walk cache
// convert their own keys to them.
type TLB struct {
	slots *Slots
	index *pagetable.Map // valid pages → slot
}

// New returns a TLB with the given total entry count and associativity
// (see NewSlots).
func New(name string, entries, ways int) *TLB {
	slots := NewSlots(name, entries, ways)
	return &TLB{slots: slots, index: pagetable.NewMap(entries)}
}

// Lookup probes the TLB. A hit refreshes the entry's LRU state.
func (t *TLB) Lookup(p addrspace.PageID) bool {
	if i := t.index.Get(p); i >= 0 {
		t.slots.Hit(i)
		return true
	}
	t.slots.Miss()
	return false
}

// Fill installs a translation, evicting the LRU way of the set if needed.
// Filling an already-present page just refreshes it.
func (t *TLB) Fill(p addrspace.PageID) {
	if i := t.index.Get(p); i >= 0 {
		t.slots.Touch(i)
		return
	}
	i, old, replaced := t.slots.Insert(p)
	if replaced {
		t.index.Delete(old)
	}
	t.index.Put(p, i)
}

// Invalidate removes a translation if present (page eviction shootdown).
func (t *TLB) Invalidate(p addrspace.PageID) bool {
	i := t.index.Get(p)
	if i < 0 {
		return false
	}
	t.index.Delete(p)
	t.slots.Invalidate(i)
	return true
}

// Stats returns cumulative hit/miss/fill/invalidate counts.
func (t *TLB) Stats() (hits, misses, fills, invalidates uint64) {
	return t.slots.Stats()
}
