package pagetable

import "hpe/internal/addrspace"

// Map is an open-addressing hash table from PageID to an int32 index (of a
// TLB entry, or of a page-table leaf). It is sized at construction (2×
// capacity rounded up to a power of two, ≤ 50% load) and doubles only when
// an insert would pass half load, so a user that stays within its
// construction capacity, as a TLB does, never allocates after New. Linear
// probing with backward-shift deletion keeps probe chains tombstone-free
// under the fill/invalidate churn of eviction shootdowns. Replacing the
// runtime map removes hashing and bucket overhead from the per-access TLB
// Lookup path, which profiles showed dominating once the set scans were
// gone.
type Map struct {
	slots []mapSlot
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
	n     int
}

type mapSlot struct {
	page addrspace.PageID
	idx  int32 // -1 = empty
}

// NewMap returns an empty map that holds capacity entries without growing.
func NewMap(capacity int) *Map {
	size := 8
	for size < capacity*2 {
		size <<= 1
	}
	m := &Map{}
	m.resize(size)
	return m
}

// resize replaces the slot array with size empty slots (a power of two).
func (m *Map) resize(size int) {
	//lint:ignore hpelint/hotalloc sized once at construction; afterwards only a page table adding a leaf past half load doubles it, so a run allocates O(log leaves) times
	m.slots = make([]mapSlot, size)
	m.shift = 64
	for v := size; v > 1; v >>= 1 {
		m.shift--
	}
	for i := range m.slots {
		m.slots[i].idx = -1
	}
	m.n = 0
}

func (m *Map) hash(p addrspace.PageID) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> m.shift
}

func (m *Map) mask() uint64 { return uint64(len(m.slots) - 1) }

// Get returns the index stored for p, or -1.
func (m *Map) Get(p addrspace.PageID) int32 {
	mask := m.mask()
	for i := m.hash(p); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.idx < 0 {
			return -1
		}
		if s.page == p {
			return s.idx
		}
	}
}

// Put inserts or updates p → idx (idx ≥ 0), doubling the table first if the
// insert would pass half load.
func (m *Map) Put(p addrspace.PageID, idx int32) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := m.mask()
	for i := m.hash(p); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.idx < 0 {
			s.page = p
			s.idx = idx
			m.n++
			return
		}
		if s.page == p {
			s.idx = idx
			return
		}
	}
}

// grow doubles the slot array and reinserts every live entry.
func (m *Map) grow() {
	old := m.slots
	m.resize(2 * len(old))
	for _, s := range old {
		if s.idx >= 0 {
			m.Put(s.page, s.idx)
		}
	}
}

// Delete removes p if present, backward-shifting the probe chain so no
// tombstones accumulate (Knuth 6.4 algorithm R).
func (m *Map) Delete(p addrspace.PageID) {
	mask := m.mask()
	i := m.hash(p)
	for {
		s := &m.slots[i]
		if s.idx < 0 {
			return
		}
		if s.page == p {
			break
		}
		i = (i + 1) & mask
	}
	m.n--
	for {
		m.slots[i].idx = -1
		j := i
		for {
			j = (j + 1) & mask
			s := &m.slots[j]
			if s.idx < 0 {
				return
			}
			h := m.hash(s.page)
			// Shift s back to the hole unless its home position lies
			// cyclically within (i, j] — moving it would overshoot its chain.
			if (j-h)&mask >= (j-i)&mask {
				m.slots[i] = *s
				break
			}
		}
		i = j
	}
}

// Len returns the number of live entries.
func (m *Map) Len() int { return m.n }
