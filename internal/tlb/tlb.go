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
// Every operation is O(1): a tag → entry index map (pagetable.Map, the
// open-addressing table the page tables use as their top level) answers
// presence, and each set keeps an intrusive doubly-linked list ordered
// LRU → MRU with invalid entries parked at the LRU end. reference_test.go
// keeps a timestamp-per-entry scan as the differential oracle.
package tlb

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// TLB is a set-associative, LRU-replaced tag array. Tags are PageIDs; the
// data cache and the page-walk cache convert their own keys to them.
type TLB struct {
	sets    int
	ways    int
	entries []entry        // sets × ways, row-major
	head    []int32        // per-set list head: invalid-first, then LRU
	tail    []int32        // per-set list tail: MRU
	index   *pagetable.Map // valid pages → entry index

	hits      uint64
	misses    uint64
	fills     uint64
	invalides uint64
}

type entry struct {
	page       addrspace.PageID
	prev, next int32 // intrusive per-set LRU list, -1 terminated
	valid      bool
}

// New returns a TLB with the given total entry count and associativity.
// entries must be divisible by ways; ways == entries gives a fully
// associative TLB. name labels the geometry panic.
func New(name string, entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb %s: bad geometry entries=%d ways=%d", name, entries, ways))
	}
	t := &TLB{
		sets:    entries / ways,
		ways:    ways,
		entries: make([]entry, entries),
		head:    make([]int32, entries/ways),
		tail:    make([]int32, entries/ways),
		index:   pagetable.NewMap(entries),
	}
	// Chain each set's entries in row order, all invalid.
	for s := 0; s < t.sets; s++ {
		first := int32(s * t.ways)
		last := first + int32(t.ways) - 1
		t.head[s] = first
		t.tail[s] = last
		for i := first; i <= last; i++ {
			t.entries[i] = entry{prev: i - 1, next: i + 1}
		}
		t.entries[first].prev = -1
		t.entries[last].next = -1
	}
	return t
}

func (t *TLB) set(p addrspace.PageID) int {
	return int(uint64(p) % uint64(t.sets))
}

// unlink removes entry i from its set's list.
func (t *TLB) unlink(s int, i int32) {
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

// moveToTail marks entry i most-recently-used.
func (t *TLB) moveToTail(s int, i int32) {
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

// moveToHead parks entry i at the reuse-first end.
func (t *TLB) moveToHead(s int, i int32) {
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
	if i := t.index.Get(p); i >= 0 {
		t.moveToTail(t.set(p), i)
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Fill installs a translation, evicting the LRU way of the set if needed.
// Filling an already-present page just refreshes it.
func (t *TLB) Fill(p addrspace.PageID) {
	if i := t.index.Get(p); i >= 0 {
		t.moveToTail(t.set(p), i)
		return
	}
	s := t.set(p)
	v := t.head[s] // invalid entry if any exists, else the LRU way
	e := &t.entries[v]
	if e.valid {
		t.index.Delete(e.page)
	}
	e.page = p
	e.valid = true
	t.index.Put(p, v)
	t.moveToTail(s, v)
	t.fills++
}

// Invalidate removes a translation if present (page eviction shootdown).
func (t *TLB) Invalidate(p addrspace.PageID) bool {
	i := t.index.Get(p)
	if i < 0 {
		return false
	}
	t.index.Delete(p)
	t.entries[i].valid = false
	t.moveToHead(t.set(p), i)
	t.invalides++
	return true
}

// Stats returns cumulative hit/miss/fill/invalidate counts.
func (t *TLB) Stats() (hits, misses, fills, invalidates uint64) {
	return t.hits, t.misses, t.fills, t.invalides
}
