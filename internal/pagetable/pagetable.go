// Package pagetable holds the simulator's per-page state, the way a GMMU
// page table does: the UVM driver's device-memory state (resident, or the
// pending fault) and the policies' indexes are each a Table keyed by
// addrspace.PageID, and internal/gpu keeps one Rows record per page (its
// walk MSHR, its fault's waiters and its slot in every TLB).
//
// Both are two-level radix tables. The low leafBits bits of a page pick a
// slot in a 64-entry leaf; the remaining bits, the leaf number, index the
// top level, a directory. Leaves are allocated on the first write into
// their 64-page span and then kept, so a table's memory is bounded by the
// spans it has touched: dense traces (workload allocations are contiguous)
// pack 64 pages per leaf, and a sparse trace costs one small leaf per page
// instead of a flat array over its whole address range.
//
// The directory is a dense window — a flat slice of leaf indexes over a
// contiguous range of leaf numbers, kept at least about half full — with a
// Go map for the leaves outside it. A dense trace's leaves all land in the
// window, so finding a page's leaf is a subtraction, a bounds check and one
// load; only leaves that would leave the window too sparse pay the hash.
package pagetable

import (
	"slices"

	"hpe/internal/addrspace"
)

const (
	leafBits = 6
	leafSize = 1 << leafBits
	leafMask = leafSize - 1
)

// windowSlack is how many empty window entries a directory tolerates beyond
// twice its windowed leaves: it lets the window bridge small gaps between
// allocations while its memory stays linear in the leaves it holds.
const windowSlack = 64

// directory maps leaf numbers to leaf indexes. A leaf lives either in the
// window (window[k-base] = index) or in far, never both; an empty window
// entry (-1) falls through to far, so a leaf that went to far before the
// window grew over it is still found.
type directory struct {
	base     addrspace.PageID // leaf number of window[0]
	window   []int32          // leaf index, -1 where the leaf is absent or in far
	windowed int              // leaves in the window

	// far holds the leaves outside the window. It is never iterated, so
	// map order cannot leak.
	far map[addrspace.PageID]int32
}

func newDirectory() directory { return directory{far: make(map[addrspace.PageID]int32)} }

// get returns the index of leaf k, or -1.
func (d *directory) get(k addrspace.PageID) int32 {
	if o := k - d.base; o < addrspace.PageID(len(d.window)) {
		if i := d.window[o]; i >= 0 {
			return i
		}
	}
	if i, ok := d.far[k]; ok {
		return i
	}
	return -1
}

// add records leaf k (absent so far) at index i: in the window when it
// covers k or can grow over k and stay dense enough, else in far.
func (d *directory) add(k addrspace.PageID, i int32) {
	if d.cover(k) {
		d.window[k-d.base] = i
		d.windowed++
		return
	}
	d.far[k] = i
}

// cover grows the window to include leaf number k unless that would leave
// it more than about half empty, and reports whether k is now inside.
func (d *directory) cover(k addrspace.PageID) bool {
	n := addrspace.PageID(len(d.window))
	if n == 0 {
		d.base = k
		d.window = append(d.window, -1)
		return true
	}
	limit := addrspace.PageID(2*(d.windowed+1) + windowSlack)
	switch {
	case k-d.base < n:
		return true
	case k > d.base: // above the window
		if k-d.base >= limit {
			return false
		}
		for addrspace.PageID(len(d.window)) <= k-d.base {
			d.window = append(d.window, -1)
		}
		return true
	default: // below: shift the window up by the gap, plus headroom if it fits
		gap := d.base - k
		if gap+n > limit {
			return false
		}
		shift := max(gap, min(n, limit-n, d.base))
		d.window = slices.Grow(d.window, int(shift))[:n+shift]
		copy(d.window[shift:], d.window[:n])
		for j := range d.window[:shift] {
			d.window[j] = -1
		}
		d.base -= shift
		return true
	}
}

// leaf holds 64 consecutive pages: a presence bit and a value per page.
type leaf[V any] struct {
	used uint64
	vals [leafSize]V
}

// Table maps pages to values of type V. The zero Table is not usable;
// construct one with New. Get writes nothing, but a Table is not safe for
// concurrent use with any writer.
type Table[V any] struct {
	dir    directory
	leaves []leaf[V] // one value slab: no per-leaf objects for the GC to trace
	n      int
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{dir: newDirectory()}
}

// find returns the leaf covering p, or nil if none was allocated yet.
func (t *Table[V]) find(p addrspace.PageID) *leaf[V] {
	i := t.dir.get(p >> leafBits)
	if i < 0 {
		return nil
	}
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
		t.leaves = append(t.leaves, leaf[V]{})
		i := int32(len(t.leaves) - 1)
		t.dir.add(p>>leafBits, i)
		l = &t.leaves[i]
	}
	if bit := uint64(1) << (p & leafMask); l.used&bit == 0 {
		l.used |= bit
		t.n++
	}
	return &l.vals[p&leafMask]
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

// Rows maps pages to rows of 16-bit cells whose width is fixed at
// construction, so a record that holds one cell per SM still sits in one
// contiguous run of memory beside the rest of its page's state. Every cell
// reads zero until written; there is no presence bit.
type Rows struct {
	width int
	dir   directory
	cells []uint16 // leaf i holds cells[i*leafSize*width : (i+1)*leafSize*width]
}

// NewRows returns an empty row table of the given width (≥ 1), with room
// for the leaves of pages consecutive pages before its cell slab grows.
func NewRows(width, pages int) *Rows {
	if width < 1 {
		panic("pagetable: row width must be positive")
	}
	leaves := (max(pages, 0) + leafSize - 1) / leafSize
	return &Rows{width: width, dir: newDirectory(), cells: make([]uint16, 0, leaves*leafSize*width)}
}

// Row returns p's row, allocating p's leaf on first touch of its span. The
// slice aliases the table: it is valid until the next Row call that
// allocates a leaf.
func (r *Rows) Row(p addrspace.PageID) []uint16 {
	i := r.dir.get(p >> leafBits)
	if i < 0 {
		span := leafSize * r.width
		n := len(r.cells)
		r.cells = slices.Grow(r.cells, span)[:n+span]
		clear(r.cells[n:])
		i = int32(n / span)
		r.dir.add(p>>leafBits, i)
	}
	return r.row(i, p)
}

// Lookup returns p's row, or nil when no page of p's span was ever given
// one. It never allocates, so it leaves earlier rows valid.
func (r *Rows) Lookup(p addrspace.PageID) []uint16 {
	i := r.dir.get(p >> leafBits)
	if i < 0 {
		return nil
	}
	return r.row(i, p)
}

func (r *Rows) row(i int32, p addrspace.PageID) []uint16 {
	off := (int(i)<<leafBits + int(p&leafMask)) * r.width
	return r.cells[off : off+r.width : off+r.width]
}
