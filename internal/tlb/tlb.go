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
// A TLB is sets × ways entries, each set an intrusive doubly-linked list
// ordered LRU → MRU with invalid entries parked at the LRU end. It serves
// two kinds of caller. The simulator's TLBs keep each page's slot in its
// own page record (internal/gpu) and address the array by slot number:
// Hit, Miss, Touch, Insert and InvalidateSlot. Every other caller asks by
// tag: Lookup, Fill and Invalidate compare the ways of the tag's set, as
// the hardware does. reference_test.go keeps a timestamp-per-entry scan as
// the differential oracle.
package tlb

import (
	"fmt"

	"hpe/internal/addrspace"
)

// TLB is a set-associative, LRU-replaced tag array with hit/miss/fill/
// invalidate counters. Tags are PageIDs; the data cache and the page-walk
// cache convert their own keys to them. Slot numbers are stable: a page
// keeps its slot until it is replaced or invalidated.
type TLB struct {
	sets    uint64
	ways    int
	pow2    bool    // sets is a power of two: masks instead of dividing
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

// New returns an all-invalid TLB with the given total entry count and
// associativity. entries must be divisible by ways; ways == entries gives a
// fully associative array. name labels the geometry panic.
func New(name string, entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb %s: bad geometry entries=%d ways=%d", name, entries, ways))
	}
	t := &TLB{
		sets:    uint64(entries / ways),
		ways:    ways,
		entries: make([]entry, entries),
		head:    make([]int32, entries/ways),
		tail:    make([]int32, entries/ways),
	}
	t.pow2 = t.sets&(t.sets-1) == 0
	// Chain each set's entries in row order, all invalid.
	for s := 0; s < int(t.sets); s++ {
		first := int32(s * ways)
		last := first + int32(ways) - 1
		t.head[s] = first
		t.tail[s] = last
		for i := first; i <= last; i++ {
			e := &t.entries[i]
			e.prev, e.next, e.set = i-1, i+1, int32(s)
		}
		t.entries[first].prev = -1
		t.entries[last].next = -1
	}
	return t
}

// setOf returns the set page p maps to.
func (t *TLB) setOf(p addrspace.PageID) uint64 {
	if t.pow2 {
		return uint64(p) & (t.sets - 1)
	}
	return uint64(p) % t.sets
}

// find returns the slot holding page p, or -1: a compare of every way of
// p's set.
func (t *TLB) find(p addrspace.PageID) int32 {
	first := int(t.setOf(p)) * t.ways
	row := t.entries[first : first+t.ways]
	for i := range row {
		if row[i].page == p && row[i].valid {
			return int32(first + i)
		}
	}
	return -1
}

// unlink removes entry i from its set's list.
func (t *TLB) unlink(s, i int32) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head[s] = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail[s] = e.prev
	}
}

// Touch marks slot i most-recently-used without counting a hit (a re-fill
// of a present page).
func (t *TLB) Touch(i int32) {
	s := t.entries[i].set
	if t.tail[s] == i {
		return
	}
	t.unlink(s, i)
	e := &t.entries[i]
	e.prev = t.tail[s]
	e.next = -1
	t.entries[t.tail[s]].next = i
	t.tail[s] = i
}

// Hit counts a lookup that found its page in slot i and marks it
// most-recently-used.
func (t *TLB) Hit(i int32) {
	t.hits++
	t.Touch(i)
}

// Miss counts a lookup that found no slot.
func (t *TLB) Miss() { t.misses++ }

// Insert installs page p, which the caller knows holds no slot, in the
// reuse-first entry of its set: an invalid one if any, else the LRU way.
// It returns p's slot and, when a valid entry was replaced, the page that
// lost its slot.
func (t *TLB) Insert(p addrspace.PageID) (slot int32, evicted addrspace.PageID, replaced bool) {
	slot = t.head[t.setOf(p)]
	e := &t.entries[slot]
	evicted, replaced = e.page, e.valid
	e.page = p
	e.valid = true
	t.Touch(slot)
	t.fills++
	return slot, evicted, replaced
}

// InvalidateSlot empties slot i (page eviction shootdown) and parks it at
// the reuse-first end of its set.
func (t *TLB) InvalidateSlot(i int32) {
	s := t.entries[i].set
	t.entries[i].valid = false
	t.invalides++
	if t.head[s] == i {
		return
	}
	t.unlink(s, i)
	e := &t.entries[i]
	e.next = t.head[s]
	e.prev = -1
	t.entries[t.head[s]].prev = i
	t.head[s] = i
}

// Lookup probes the TLB. A hit refreshes the entry's LRU state.
func (t *TLB) Lookup(p addrspace.PageID) bool {
	if i := t.find(p); i >= 0 {
		t.Hit(i)
		return true
	}
	t.Miss()
	return false
}

// Fill installs a translation, evicting the LRU way of the set if needed.
// Filling an already-present page just refreshes it.
func (t *TLB) Fill(p addrspace.PageID) {
	if i := t.find(p); i >= 0 {
		t.Touch(i)
		return
	}
	t.Insert(p)
}

// Invalidate removes a translation if present (page eviction shootdown).
func (t *TLB) Invalidate(p addrspace.PageID) bool {
	i := t.find(p)
	if i < 0 {
		return false
	}
	t.InvalidateSlot(i)
	return true
}

// Len returns the number of slots.
func (t *TLB) Len() int { return len(t.entries) }

// Page returns the page in slot i and whether the slot is valid.
func (t *TLB) Page(i int32) (addrspace.PageID, bool) {
	e := &t.entries[i]
	return e.page, e.valid
}

// Stats returns cumulative hit/miss/fill/invalidate counts.
func (t *TLB) Stats() (hits, misses, fills, invalidates uint64) {
	return t.hits, t.misses, t.fills, t.invalides
}
