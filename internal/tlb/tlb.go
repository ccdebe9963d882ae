// Package tlb implements the set-associative translation lookaside buffers
// of the paper's baseline architecture (Fig. 1 / Table I): per-SM private L1
// TLBs backed by a shared L2 TLB, both LRU-replaced, with invalidation on
// page eviction.
//
// The TLB stores only page-number tags; the simulator does not need the
// physical translation itself, just hit/miss behaviour, because policy
// visibility (which references reach the page walker) is what the paper's
// mechanisms key off.
//
// Every operation is O(1): a page → entry index map (pagetable.Map, the
// open-addressing table the page tables use as their top level) answers
// presence, and each set maintains an intrusive doubly-linked list ordered
// LRU → MRU with invalid entries parked at the LRU end. This replaces the original
// timestamp-per-entry scheme, which scanned the whole set on every Lookup,
// Fill, and Invalidate — the dominant cost of eviction shootdowns, which
// probe one L2 and every SM's L1. Because timestamps were unique (one tick
// per operation), list order reproduces timestamp order exactly and victim
// selection is behaviourally identical; the list invariant (invalid entries
// always form a prefix at the LRU end, valid entries follow in LRU → MRU
// refresh order) is checked by the differential test against the retained
// reference implementation. One latent quirk of the original is repaired
// rather than reproduced: re-filling a resident page behind an invalid way
// no longer installs a duplicate entry (TestOriginalFillDuplicateQuirk);
// the root golden tests confirm headline results are unchanged.
package tlb

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// TLB is a set-associative, LRU-replaced translation cache.
type TLB struct {
	name    string
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
// associative TLB.
func New(name string, entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry entries=%d ways=%d", entries, ways))
	}
	t := &TLB{
		name:    name,
		sets:    entries / ways,
		ways:    ways,
		entries: make([]entry, entries),
		head:    make([]int32, entries/ways),
		tail:    make([]int32, entries/ways),
		index:   pagetable.NewMap(entries),
	}
	t.resetLists()
	return t
}

// resetLists chains each set's entries in row order, all invalid.
func (t *TLB) resetLists() {
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
}

// Name returns the TLB's label (for stats reporting).
func (t *TLB) Name() string { return t.name }

// Entries returns the total capacity.
func (t *TLB) Entries() int { return len(t.entries) }

// Ways returns the associativity.
func (t *TLB) Ways() int { return t.ways }

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

// Flush invalidates every entry.
func (t *TLB) Flush() {
	t.resetLists()
	t.index.Clear()
}

// Stats returns cumulative hit/miss/fill/invalidate counts.
func (t *TLB) Stats() (hits, misses, fills, invalidates uint64) {
	return t.hits, t.misses, t.fills, t.invalides
}

// HitRate returns hits / (hits+misses), or 0 for an unused TLB.
func (t *TLB) HitRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.hits) / float64(total)
}

// Occupancy returns the number of valid entries.
func (t *TLB) Occupancy() int {
	return t.index.Len()
}
