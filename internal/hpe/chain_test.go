package hpe

import (
	"testing"

	"hpe/internal/addrspace"
)

func testChain() *setChain {
	return newSetChain(64)
}

// touchSet touches the primary half of set s.
func touchSet(c *setChain, s addrspace.SetID, inc, faultOffset int) *chainEntry {
	return c.touch(s, c.record(s), primary, inc, faultOffset)
}

// primaryOf returns set s's primary entry, or nil.
func primaryOf(c *setChain, s addrspace.SetID) *chainEntry {
	return c.at(c.record(s).entry[primary])
}

// order lists the chain's sets from head to tail.
func order(c *setChain) []addrspace.SetID {
	var out []addrspace.SetID
	for e := c.at(c.head); e != nil; e = c.at(e.next) {
		out = append(out, e.set)
	}
	return out
}

func TestTouchInsertsAtNewPartitionMRU(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 1, 0)
	touchSet(c, 2, 1, 0)
	got := order(c)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("chain order = %v", got)
	}
	for e := c.at(c.head); e != nil; e = c.at(e.next) {
		if c.partitionOf(e) != PartitionNew {
			t.Fatalf("%v in %v, want new", e.set, c.partitionOf(e))
		}
	}
}

func TestPartitionsAfterRollovers(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 1, 0) // interval 0
	c.rollover()
	touchSet(c, 2, 1, 0) // interval 1
	c.rollover()
	touchSet(c, 3, 1, 0) // interval 2
	e1, e2, e3 := primaryOf(c, 1), primaryOf(c, 2), primaryOf(c, 3)
	if c.partitionOf(e1) != PartitionOld {
		t.Errorf("set 1 in %v, want old", c.partitionOf(e1))
	}
	if c.partitionOf(e2) != PartitionMiddle {
		t.Errorf("set 2 in %v, want middle", c.partitionOf(e2))
	}
	if c.partitionOf(e3) != PartitionNew {
		t.Errorf("set 3 in %v, want new", c.partitionOf(e3))
	}
	old, mid, neu := c.partitionLens()
	if old != 1 || mid != 1 || neu != 1 {
		t.Fatalf("partition lens = %d/%d/%d", old, mid, neu)
	}
}

func TestTouchMovesOldEntryToNewMRU(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 1, 0)
	touchSet(c, 2, 1, 0)
	c.rollover()
	c.rollover()
	// Both are old now. Touch set 1: it must move to the tail (new MRU).
	touchSet(c, 1, 1, 1)
	got := order(c)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("chain order after move = %v", got)
	}
	if c.partitionOf(primaryOf(c, 1)) != PartitionNew {
		t.Fatal("moved entry not in new partition")
	}
}

func TestNoMovementWithinInterval(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 1, 0)
	touchSet(c, 2, 1, 0)
	// Set 1 is already in the new partition: touching it again must not
	// reorder the chain (the paper's movement-pinning rule).
	touchSet(c, 1, 1, 1)
	got := order(c)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("pinned entry moved: %v", got)
	}
}

func TestCounterSaturatesAtCap(t *testing.T) {
	c := testChain()
	e := touchSet(c, 1, 100, 0)
	if e.counter != 64 {
		t.Fatalf("counter = %d, want cap 64", e.counter)
	}
	touchSet(c, 1, 5, 1)
	if e.counter != 64 {
		t.Fatalf("counter after more touches = %d, want 64", e.counter)
	}
}

func TestBitVectorOnlyOnFaults(t *testing.T) {
	c := testChain()
	e := touchSet(c, 1, 1, 3) // fault at offset 3
	touchSet(c, 1, 1, -1)     // hit-style update
	if e.bitVector != 1<<3 {
		t.Fatalf("bitVector = %b, want only bit 3", e.bitVector)
	}
}

func TestUpdateExistingDropsUnknownSets(t *testing.T) {
	c := testChain()
	if got := c.updateExisting(9, c.record(9), primary, 2); got != nil {
		t.Fatal("updateExisting created an entry")
	}
	touchSet(c, 9, 1, 0)
	if got := c.updateExisting(9, c.record(9), primary, 2); got == nil || got.counter != 3 {
		t.Fatalf("updateExisting on existing entry = %+v", got)
	}
}

func TestOldMRUFindsBoundary(t *testing.T) {
	c := testChain()
	for i := 1; i <= 3; i++ {
		touchSet(c, addrspace.SetID(i), 1, 0)
	}
	c.rollover()
	touchSet(c, 4, 1, 0)
	c.rollover()
	touchSet(c, 5, 1, 0)
	// Old partition: sets 1,2,3 (MRU of old = 3). Middle: 4. New: 5.
	if got := c.oldMRU(); got == nil || got.set != 3 {
		t.Fatalf("oldMRU = %v, want set 3", got)
	}
}

func TestOldMRUEmptyOldPartition(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 1, 0)
	if c.oldMRU() != nil {
		t.Fatal("oldMRU found an entry with no old partition")
	}
	c.rollover()
	if c.oldMRU() != nil {
		t.Fatal("middle-partition entry reported as old")
	}
}

func TestRemoveMaintainsLinks(t *testing.T) {
	c := testChain()
	for i := 1; i <= 3; i++ {
		touchSet(c, addrspace.SetID(i), 1, 0)
	}
	c.remove(c.record(2), primary)
	got := order(c)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("after middle removal: %v", got)
	}
	c.remove(c.record(1), primary)
	c.remove(c.record(3), primary)
	if c.head != nilEntry || c.tail != nilEntry || c.Len() != 0 {
		t.Fatal("chain not empty after removing everything")
	}
}

// TestRemovedEntriesAreReused: a new set life takes a freed entry instead
// of growing the slab, and starts from a clean entry.
func TestRemovedEntriesAreReused(t *testing.T) {
	c := testChain()
	for i := 1; i <= 3; i++ {
		touchSet(c, addrspace.SetID(i), 5, i)
	}
	slab := len(c.entries)
	c.remove(c.record(2), primary)
	c.remove(c.record(1), primary)
	e := touchSet(c, 7, 1, 0)
	if len(c.entries) != slab {
		t.Fatalf("slab grew from %d to %d with free entries", slab, len(c.entries))
	}
	if e.set != 7 || e.counter != 1 || e.bitVector != 1 || e.residentMask != 0 || e.divided {
		t.Fatalf("reused entry not reset: %+v", *e)
	}
	if primaryOf(c, 1) != nil || primaryOf(c, 2) != nil || primaryOf(c, 7) != e {
		t.Fatal("record slots do not follow the removals and the reuse")
	}
	if got := order(c); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("chain order after reuse = %v", got)
	}
	touchSet(c, 8, 1, 0)
	touchSet(c, 9, 1, 0)
	if len(c.entries) != slab+1 {
		t.Fatalf("slab = %d entries after the free list ran out, want %d", len(c.entries), slab+1)
	}
}

func TestStampOrderingInvariant(t *testing.T) {
	// After arbitrary touches and rollovers the chain must stay sorted by
	// movedInterval — the property the partition derivation relies on.
	c := testChain()
	for step := 0; step < 500; step++ {
		set := addrspace.SetID(step * 7 % 23)
		touchSet(c, set, 1, step%16)
		if step%13 == 0 {
			c.rollover()
		}
		prev := uint64(0)
		for e := c.at(c.head); e != nil; e = c.at(e.next) {
			if e.movedInterval < prev {
				t.Fatalf("step %d: chain not stamp-sorted", step)
			}
			prev = e.movedInterval
		}
	}
}

func TestEntryHelpers(t *testing.T) {
	e := &chainEntry{}
	if e.evictable() || e.lowestResident() != -1 {
		t.Fatal("empty entry reported evictable")
	}
	e.residentMask = 0b1010
	if !e.evictable() || e.lowestResident() != 1 {
		t.Fatalf("lowestResident = %d, want 1", e.lowestResident())
	}
}

func TestSecondaryKeysAreDistinct(t *testing.T) {
	c := testChain()
	touchSet(c, 1, 1, 0)
	c.touch(1, c.record(1), secondary, 1, 1)
	if c.Len() != 2 {
		t.Fatalf("chain len = %d, want 2 (primary + secondary)", c.Len())
	}
}
