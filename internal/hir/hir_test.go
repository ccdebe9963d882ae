package hir

import (
	"testing"

	"hpe/internal/addrspace"
)

func defaultCache() *Cache { return New(DefaultConfig()) }

func TestRecordAndDrain(t *testing.T) {
	c := defaultCache()
	g := addrspace.DefaultGeometry()
	// Two hits to page 0 of set 5, one to page 3 of set 5, one to set 9.
	c.RecordHit(g.PageAt(5, 0))
	c.RecordHit(g.PageAt(5, 0))
	c.RecordHit(g.PageAt(5, 3))
	c.RecordHit(g.PageAt(9, 7))
	if c.Touched() != 2 {
		t.Fatalf("Touched = %d, want 2", c.Touched())
	}
	recs := c.Drain()
	if len(recs) != 2 {
		t.Fatalf("drained %d records, want 2", len(recs))
	}
	// First-touch order: set 5 first.
	if recs[0].Set != 5 || recs[1].Set != 9 {
		t.Fatalf("drain order = %v, %v; want sets 5 then 9", recs[0].Set, recs[1].Set)
	}
	if recs[0].Counts != 2|1<<(3*CounterBits) {
		t.Fatalf("set 5 counts = %#x, want 2 at offset 0 and 1 at offset 3", recs[0].Counts)
	}
	if recs[1].Count(7) != 1 || recs[1].Counts != 1<<(7*CounterBits) {
		t.Fatalf("set 9 counts = %#x, want 1 at offset 7", recs[1].Counts)
	}
	// Cache flushed.
	if c.Touched() != 0 {
		t.Fatalf("Touched after drain = %d", c.Touched())
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("second drain returned %d records", len(got))
	}
}

func TestCounterSaturatesAtMax(t *testing.T) {
	c := defaultCache() // 2-bit counters: max 3
	g := addrspace.DefaultGeometry()
	for i := 0; i < 10; i++ {
		c.RecordHit(g.PageAt(1, 0))
	}
	recs := c.Drain()
	if recs[0].Count(0) != 3 || recs[0].Counts != 3 {
		t.Fatalf("saturating counter = %d (word %#x), want 3", recs[0].Count(0), recs[0].Counts)
	}
}

// TestTopOffsetSaturatesWithoutCarry fills a 32-page set's word: the
// counter of offset 31 occupies its top two bits and must saturate at 3
// rather than carry out of the word, and its neighbour must stay apart.
func TestTopOffsetSaturatesWithoutCarry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = addrspace.NewGeometry(5)
	c := New(cfg)
	for i := 0; i < 10; i++ {
		c.RecordHit(cfg.Geometry.PageAt(4, 31))
	}
	c.RecordHit(cfg.Geometry.PageAt(4, 30))
	recs := c.Drain()
	if len(recs) != 1 {
		t.Fatalf("drained %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Count(31) != 3 || r.Count(30) != 1 || r.Counts != 3<<62|1<<60 {
		t.Fatalf("offsets 31/30 = %d/%d (word %#x), want 3/1", r.Count(31), r.Count(30), r.Counts)
	}
}

// TestDrainAllocatesOneBatch requires one Drain to allocate at most the
// batch slice it returns, however many records it carries.
func TestDrainAllocatesOneBatch(t *testing.T) {
	c := defaultCache()
	g := addrspace.DefaultGeometry()
	for _, sets := range []int{1, 16, 512} {
		allocs := testing.AllocsPerRun(10, func() {
			for s := 0; s < sets; s++ {
				c.RecordHit(g.PageAt(addrspace.SetID(s), s%16))
			}
			if got := c.Drain(); len(got) != sets {
				t.Fatalf("drained %d records, want %d", len(got), sets)
			}
		})
		if allocs > 1 {
			t.Errorf("a drain of %d records allocated %.0f objects, want at most 1", sets, allocs)
		}
	}
}

func TestWayConflictDropsHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries, cfg.Ways = 2, 2 // a single row with 2 ways
	c := New(cfg)
	g := cfg.Geometry
	c.RecordHit(g.PageAt(0, 0))
	c.RecordHit(g.PageAt(1, 0))
	c.RecordHit(g.PageAt(2, 0)) // third distinct set: conflict, dropped
	st := c.Stats()
	if st.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", st.Conflicts)
	}
	recs := c.Drain()
	if len(recs) != 2 {
		t.Fatalf("drained %d, want 2 (conflicting set lost)", len(recs))
	}
	for _, r := range recs {
		if r.Set == 2 {
			t.Fatal("conflicting set 2 was recorded")
		}
	}
}

func TestMVTStrideWastesEntrySpace(t *testing.T) {
	// MVT touches pages with stride 4: each entry records only 4 of its 16
	// counters — the waste the paper blames for MVT's HIR conflicts.
	c := defaultCache()
	g := addrspace.DefaultGeometry()
	for s := 0; s < 4; s++ {
		for off := 0; off < 16; off += 4 {
			c.RecordHit(g.PageAt(addrspace.SetID(s), off))
		}
	}
	for _, r := range c.Drain() {
		used := 0
		for off := 0; off < g.SetSize(); off++ {
			if r.Count(off) > 0 {
				used++
			}
		}
		if used != 4 {
			t.Fatalf("set %v used %d counters, want 4", r.Set, used)
		}
	}
}

func TestPaperStorageCost(t *testing.T) {
	// Paper §V-C: 48-bit tag + 16×2-bit counters = 80 bits = 10 B per entry;
	// 1024 entries = 10 KB.
	c := defaultCache()
	if got := c.TransferBytes(1); got != 10 {
		t.Fatalf("entry size = %d bytes, want 10", got)
	}
	if got := c.StorageBytes(); got != 10*1024 {
		t.Fatalf("storage = %d bytes, want 10240", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := defaultCache()
	g := addrspace.DefaultGeometry()
	c.RecordHit(g.PageAt(1, 0))
	c.Drain()
	c.RecordHit(g.PageAt(2, 0))
	c.RecordHit(g.PageAt(3, 0))
	c.Drain()
	st := c.Stats()
	if st.Drains != 2 || st.HitsRecorded != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanDrained != 1.5 || st.MaxDrained != 2 {
		t.Fatalf("drain stats mean=%f max=%d, want 1.5, 2", st.MeanDrained, st.MaxDrained)
	}
	sizes := c.DrainSizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("DrainSizes = %v", sizes)
	}
}

func TestEntryReusedAfterDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries, cfg.Ways = 2, 2
	c := New(cfg)
	g := cfg.Geometry
	c.RecordHit(g.PageAt(0, 0))
	c.RecordHit(g.PageAt(1, 0))
	c.Drain()
	// After the flush the row must accept new sets again.
	c.RecordHit(g.PageAt(2, 5))
	recs := c.Drain()
	if len(recs) != 1 || recs[0].Set != 2 || recs[0].Counts != 1<<(5*CounterBits) {
		t.Fatalf("post-drain record = %+v", recs)
	}
	if c.Stats().Conflicts != 0 {
		t.Fatal("conflict counted after flush freed the row")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 0, Ways: 1, Geometry: addrspace.DefaultGeometry()},
		{Entries: 8, Ways: 3, Geometry: addrspace.DefaultGeometry()},
		{Entries: 8, Ways: 2, Geometry: addrspace.NewGeometry(6)}, // 64 pages × 2 bits overflow the word
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultAvoidsConflictsForModerateWorkingSets(t *testing.T) {
	// The paper chose 1024×8 because it avoids conflicts for most apps.
	// 512 concurrent sets (a large inter-drain working set) must fit.
	c := defaultCache()
	g := addrspace.DefaultGeometry()
	for s := 0; s < 512; s++ {
		c.RecordHit(g.PageAt(addrspace.SetID(s), 0))
	}
	if st := c.Stats(); st.Conflicts != 0 {
		t.Fatalf("conflicts = %d for 512 distinct sets", st.Conflicts)
	}
}

func BenchmarkRecordHit(b *testing.B) {
	c := defaultCache()
	g := addrspace.DefaultGeometry()
	for i := 0; i < b.N; i++ {
		c.RecordHit(g.PageAt(addrspace.SetID(i%64), i%16))
		if i%1000 == 999 {
			c.Drain()
		}
	}
}
