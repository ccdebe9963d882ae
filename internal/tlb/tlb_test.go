package tlb

import (
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
)

func TestLookupMissThenHit(t *testing.T) {
	tl := New("l1", 8, 2)
	if tl.Lookup(5) {
		t.Fatal("hit on empty TLB")
	}
	tl.Fill(5)
	if !tl.Lookup(5) {
		t.Fatal("miss after fill")
	}
	hits, misses, fills, _ := tl.Stats()
	if hits != 1 || misses != 1 || fills != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, fills)
	}
}

func TestLRUReplacementWithinSet(t *testing.T) {
	// 4 entries, 2 ways → 2 sets. Pages 0,2,4 map to set 0.
	tl := New("t", 4, 2)
	tl.Fill(0)
	tl.Fill(2)
	tl.Lookup(0) // refresh 0; LRU of set 0 is now 2
	tl.Fill(4)   // evicts 2
	if !tl.Lookup(0) {
		t.Fatal("page 0 was evicted despite being MRU")
	}
	if tl.Lookup(2) {
		t.Fatal("page 2 should have been the LRU victim")
	}
	if !tl.Lookup(4) {
		t.Fatal("page 4 missing after fill")
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	tl := New("t", 2, 2)
	tl.Fill(0)
	tl.Fill(1)
	tl.Fill(0) // refresh, no new fill slot needed
	tl.Fill(3) // pages 0..3 all map to the single set; victim should be 1
	if !tl.Lookup(0) || tl.Lookup(1) || !tl.Lookup(3) {
		t.Fatal("refresh-on-fill did not update LRU order")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New("t", 4, 4)
	tl.Fill(7)
	if !tl.Invalidate(7) {
		t.Fatal("Invalidate missed a present page")
	}
	if tl.Invalidate(7) {
		t.Fatal("Invalidate found an already-invalid page")
	}
	if tl.Lookup(7) {
		t.Fatal("hit after invalidate")
	}
}

func TestFullyAssociative(t *testing.T) {
	tl := New("fa", 4, 4)
	for i := 0; i < 4; i++ {
		tl.Fill(addrspace.PageID(i * 100))
	}
	for i := 0; i < 4; i++ {
		if !tl.Lookup(addrspace.PageID(i * 100)) {
			t.Fatalf("page %d missing in fully associative TLB", i*100)
		}
	}
	tl.Fill(999) // evicts LRU = page 0 (refreshed lookups happened in order)
	if tl.Lookup(0) {
		t.Fatal("LRU page survived in full FA TLB")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, c := range []struct{ e, w int }{{0, 1}, {4, 0}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.e, c.w)
				}
			}()
			New("bad", c.e, c.w)
		}()
	}
}

func TestPaperGeometries(t *testing.T) {
	l1 := New("l1", 128, 128) // per-SM L1: 128-entry
	l2 := New("l2", 512, 16)  // shared L2: 512-entry, 16-way
	if len(l1.slots.entries) != 128 || l1.slots.sets != 1 || !l1.slots.pow2 {
		t.Fatal("L1 geometry")
	}
	if len(l2.slots.entries) != 512 || l2.slots.sets != 32 || !l2.slots.pow2 {
		t.Fatal("L2 geometry")
	}
}

// Property: occupancy never exceeds capacity, and a filled page is always a
// hit immediately afterwards.
func TestFillThenHitProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		tl := New("p", 32, 4)
		for _, r := range raw {
			p := addrspace.PageID(r)
			tl.Fill(p)
			if !tl.Lookup(p) {
				return false
			}
			if tl.index.Len() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a TLB of capacity C holding references to C distinct pages that
// all map to distinct sets never evicts anything.
func TestNoConflictNoEviction(t *testing.T) {
	tl := New("p", 16, 1) // direct mapped, 16 sets
	for i := 0; i < 16; i++ {
		tl.Fill(addrspace.PageID(i))
	}
	for i := 0; i < 16; i++ {
		if !tl.Lookup(addrspace.PageID(i)) {
			t.Fatalf("page %d evicted without conflict", i)
		}
	}
}

func BenchmarkLookupFill(b *testing.B) {
	tl := New("bench", 512, 16)
	for i := 0; i < b.N; i++ {
		p := addrspace.PageID(i % 2048)
		if !tl.Lookup(p) {
			tl.Fill(p)
		}
	}
}
