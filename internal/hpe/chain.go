package hpe

import (
	"fmt"
	"math/bits"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
	"hpe/internal/slab"
)

// Partition identifies one of the page-set chain's three recency partitions
// (Fig. 5).
type Partition int

const (
	// PartitionOld holds sets not referenced in the last or current interval.
	PartitionOld Partition = iota
	// PartitionMiddle holds sets referenced in the last interval.
	PartitionMiddle
	// PartitionNew holds sets referenced in the current interval.
	PartitionNew
)

// String names the partition.
func (p Partition) String() string {
	switch p {
	case PartitionOld:
		return "old"
	case PartitionMiddle:
		return "middle"
	case PartitionNew:
		return "new"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// The halves of a page set: every set has a primary; a divided set also has
// a secondary, with a different tag (§IV-C).
const (
	primary   = 0
	secondary = 1
)

// setRecord is HPE's one record per page set: the chain entries of its two
// halves and its division history. The history doubles as the paper's
// history buffer: it outlives the set's entries, and because the first
// division's result is reused for every later life of the set, primaryMask
// is immutable once divided is set.
type setRecord struct {
	entry       [2]int32 // chain entry of each half, or slab.Nil
	divided     bool
	primaryMask uint32 // offsets that belong to the primary half
}

// half returns the half a page offset routes to (Fig. 6): every page of an
// undivided set, and the pages of a divided set inside the recorded primary
// mask, go to the primary; the rest go to the secondary.
func (r *setRecord) half(off int) int {
	if r.divided && r.primaryMask&(1<<uint(off)) == 0 {
		return secondary
	}
	return primary
}

// chainEntry is one page-set chain entry: tag (set and half), saturating
// counter, bit vector, divided flag (Fig. 5), plus the residency mask HPE
// needs to drain victims page by page and the interval stamp that encodes
// partition membership.
type chainEntry struct {
	set          addrspace.SetID
	secondary    bool
	divided      bool
	counter      int
	bitVector    uint32 // offsets that have page-faulted (faults only, §IV-C)
	residentMask uint32 // offsets currently resident in device memory

	// movedInterval is the interval in which the entry was last inserted or
	// moved into the new partition. Because every (re)insertion appends at
	// the tail with the then-current interval number, the chain is always
	// ordered by this stamp — so the paper's P1/P2 partition pointers are
	// equivalent to stamp thresholds, which is how we implement them.
	movedInterval uint64
}

// setChain is the page-set chain of Fig. 5: a list of slab nodes ordered
// head = LRU ... tail = MRU, with the three partitions derived from interval
// stamps. An entry that leaves the chain is reused by the next new one. The
// set records live in a page table keyed by set; slab.Nil is never a node,
// so a zero setRecord holds no entries.
type setChain struct {
	counterCap  int
	sets        *pagetable.Table[setRecord]
	entries     slab.Store[chainEntry]
	order       slab.List
	curInterval uint64
}

func newSetChain(counterCap int) *setChain {
	return &setChain{counterCap: counterCap, sets: pagetable.New[setRecord]()}
}

// record returns the set's record, creating an empty one on first use. The
// pointer is valid until the next record call.
func (c *setChain) record(s addrspace.SetID) *setRecord {
	return c.sets.Ref(addrspace.PageID(s))
}

// at returns entry i, or nil for slab.Nil.
func (c *setChain) at(i int32) *chainEntry {
	if i == slab.Nil {
		return nil
	}
	return c.entries.At(i)
}

// Len returns the number of chain entries.
func (c *setChain) Len() int { return c.order.Len() }

// partitionOf derives the entry's partition from its stamp.
func (c *setChain) partitionOf(e *chainEntry) Partition {
	switch {
	case e.movedInterval == c.curInterval:
		return PartitionNew
	case e.movedInterval+1 == c.curInterval:
		return PartitionMiddle
	default:
		return PartitionOld
	}
}

// rollover advances the interval: the new partition becomes the middle, the
// middle joins the old (the paper's P1 ← P2, P2 ← tail pointer update).
func (c *setChain) rollover() { c.curInterval++ }

// remove deletes half h of the set's entries from the chain entirely (all
// its pages evicted) and frees the entry for reuse.
func (c *setChain) remove(r *setRecord, h int) {
	c.entries.Remove(&c.order, r.entry[h])
	r.entry[h] = slab.Nil
}

// touch applies one reference event to half h of set s (Fig. 6): find or
// create its entry, bump the counter by inc (saturating), set the bit vector
// on faults, and move the entry to the MRU position of the new partition —
// unless it is already in the new partition, in which case it stays put
// ("within an interval, once a page set has been placed into the new
// partition ... following touches will not trigger its movement").
// faultOffset is the faulting page's offset within the set, or -1 for a
// hit-batch update. Returns the entry, valid until the next touch.
func (c *setChain) touch(s addrspace.SetID, r *setRecord, h, inc, faultOffset int) *chainEntry {
	i := r.entry[h]
	if i == slab.Nil {
		i = c.entries.Alloc(chainEntry{set: s, secondary: h == secondary, movedInterval: c.curInterval})
		r.entry[h] = i
		c.entries.PushBack(&c.order, i)
	} else if c.partitionOf(c.entries.At(i)) != PartitionNew {
		c.entries.Unlink(&c.order, i)
		c.entries.At(i).movedInterval = c.curInterval
		c.entries.PushBack(&c.order, i)
	}
	e := c.entries.At(i)
	e.counter += inc
	if e.counter > c.counterCap {
		e.counter = c.counterCap
	}
	if faultOffset >= 0 {
		e.bitVector |= 1 << uint(faultOffset)
	}
	return e
}

// updateExisting is the hit-batch variant of touch: it updates and moves the
// entry only if it already exists (hit information for sets evicted before
// the drain is dropped, mirroring the HIR's lossy nature).
func (c *setChain) updateExisting(s addrspace.SetID, r *setRecord, h, inc int) *chainEntry {
	if r.entry[h] == slab.Nil {
		return nil
	}
	return c.touch(s, r, h, inc, -1)
}

// oldMRU returns the MRU-most entry of the old partition, or slab.Nil when
// the old partition is empty. Because the chain is stamp-ordered, this is
// found by walking backward from the tail past the new and middle
// partitions.
func (c *setChain) oldMRU() int32 {
	for i := c.order.Tail(); i != slab.Nil; i = c.entries.Prev(i) {
		if c.partitionOf(c.entries.At(i)) == PartitionOld {
			return i
		}
	}
	return slab.Nil
}

// partitionLens counts entries per partition (O(n); used for stats and the
// first-full old-partition census).
func (c *setChain) partitionLens() (old, middle, new int) {
	for i := c.order.Head(); i != slab.Nil; i = c.entries.Next(i) {
		switch c.partitionOf(c.entries.At(i)) {
		case PartitionOld:
			old++
		case PartitionMiddle:
			middle++
		default:
			new++
		}
	}
	return
}

// evictable reports whether the entry has at least one resident page.
func (e *chainEntry) evictable() bool { return e.residentMask != 0 }

// lowestResident returns the lowest offset with a resident page; the paper
// drains a victim set's pages in address order.
func (e *chainEntry) lowestResident() int {
	if e.residentMask == 0 {
		return -1
	}
	return bits.TrailingZeros32(e.residentMask)
}
