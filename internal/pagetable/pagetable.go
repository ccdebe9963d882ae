// Package pagetable holds the simulator's per-page state, the way a GMMU
// page table does: residency (internal/mem), page-walk MSHRs and L1-TLB
// sharer masks (internal/gpu), and in-flight far-faults (internal/uvm) are
// each a Table keyed by addrspace.PageID.
//
// A Table is a two-level radix table. The low leafBits bits of a page pick a
// slot in a 64-entry leaf; the remaining bits, the leaf number, index the top
// level, a Map. Leaves are allocated on the first Put into their 64-page span
// and then kept, so a table's memory is bounded by the spans it has touched:
// dense traces (workload allocations are contiguous) pack 64 pages per leaf,
// and a sparse trace costs one small leaf per page instead of a flat array
// over its whole address range. The last leaf found is cached, so runs of
// accesses within one span skip the top-level hash entirely.
package pagetable

import "hpe/internal/addrspace"

const (
	leafBits = 6
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

// noLeaf is the empty last-leaf cache key: leaf numbers are p >> leafBits,
// so none reaches it.
const noLeaf = addrspace.PageID(^uint64(0))

// leaf holds 64 consecutive pages: a presence bit and a value per page.
type leaf[V any] struct {
	used uint64
	vals [leafSize]V
}

// Table maps pages to values of type V. The zero Table is not usable;
// construct one with New. Get updates the last-leaf cache, so a Table is not
// safe for concurrent use even when only read; shared read-only indexes use
// a Map, whose Get writes nothing.
type Table[V any] struct {
	top    *Map      // leaf number → index into leaves
	leaves []leaf[V] // one value slab: no per-leaf objects for the GC to trace
	n      int

	lastKey  addrspace.PageID // leaf number of leaves[lastLeaf], or noLeaf
	lastLeaf int32
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{top: NewMap(0), lastKey: noLeaf}
}

// find returns the leaf covering p, or nil if none was allocated yet.
func (t *Table[V]) find(p addrspace.PageID) *leaf[V] {
	k := p >> leafBits
	if k == t.lastKey {
		return &t.leaves[t.lastLeaf]
	}
	i := t.top.Get(k)
	if i < 0 {
		return nil
	}
	t.lastKey, t.lastLeaf = k, i
	return &t.leaves[i]
}

// Get returns the value stored for p and whether one is.
func (t *Table[V]) Get(p addrspace.PageID) (V, bool) {
	l := t.find(p)
	if l == nil || l.used&(1<<(p&leafMask)) == 0 {
		var zero V
		return zero, false
	}
	return l.vals[p&leafMask], true
}

// Put stores v for p, allocating p's leaf on first touch of its span.
func (t *Table[V]) Put(p addrspace.PageID, v V) { *t.Ref(p) = v }

// Ref returns a pointer to p's value, storing the zero value first if p has
// none, so a caller can read and update a record with one lookup. The
// pointer is valid until the next Put or Ref that allocates a leaf.
func (t *Table[V]) Ref(p addrspace.PageID) *V {
	l := t.find(p)
	if l == nil {
		l = t.addLeaf(p >> leafBits)
	}
	if bit := uint64(1) << (p & leafMask); l.used&bit == 0 {
		l.used |= bit
		t.n++
	}
	return &l.vals[p&leafMask]
}

// addLeaf appends an empty leaf for leaf number k and caches it.
func (t *Table[V]) addLeaf(k addrspace.PageID) *leaf[V] {
	t.leaves = append(t.leaves, leaf[V]{})
	i := int32(len(t.leaves) - 1)
	t.top.Put(k, i)
	t.lastKey, t.lastLeaf = k, i
	return &t.leaves[i]
}

// Delete removes p's value and reports whether one was stored.
func (t *Table[V]) Delete(p addrspace.PageID) bool {
	l := t.find(p)
	if l == nil {
		return false
	}
	bit := uint64(1) << (p & leafMask)
	if l.used&bit == 0 {
		return false
	}
	l.used &^= bit
	var zero V
	l.vals[p&leafMask] = zero
	t.n--
	return true
}

// Len returns the number of pages with a stored value.
func (t *Table[V]) Len() int { return t.n }
