package cache

import (
	"testing"

	"hpe/internal/addrspace"
)

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(127) != 0 || LineOf(128) != 1 {
		t.Fatal("LineOf arithmetic wrong")
	}
}

func TestAccessMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2}) // 8 lines, 4 sets
	if c.Access(5) {
		t.Fatal("hit on empty cache")
	}
	if !c.Access(5) {
		t.Fatal("miss after fill")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats %d/%d", h, m)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := New(Config{SizeBytes: 512, Ways: 2}) // 4 lines, 2 sets
	// Lines 0, 2, 4 map to set 0.
	c.Access(0)
	c.Access(2)
	c.Access(0) // refresh 0
	c.Access(4) // evicts 2
	if !c.Access(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Access(2) {
		t.Fatal("LRU line survived")
	}
}

func TestInvalidatePage(t *testing.T) {
	c := New(L1Config())
	p := addrspace.PageID(3)
	base := LineOf(p.BaseAddr())
	for i := LineID(0); i < 4; i++ {
		c.Access(base + i)
	}
	c.InvalidatePage(p)
	for i := LineID(0); i < 4; i++ {
		if c.Access(base + i) {
			t.Fatalf("line %d survived page invalidation", i)
		}
	}
}

func TestTableIGeometries(t *testing.T) {
	for _, g := range []struct {
		cfg         Config
		lines, ways int
	}{{L1Config(), 16 << 10 / LineBytes, 4}, {L2Config(), 1536 << 10 / LineBytes, 8}} {
		// N lines fit; ways+1 lines in one set evict the first of them.
		c := New(g.cfg)
		for l := 0; l < g.lines; l++ {
			c.Access(LineID(l))
		}
		for l := 0; l < g.lines; l++ {
			if !c.Access(LineID(l)) {
				t.Fatalf("%+v: line %d of %d missing", g.cfg, l, g.lines)
			}
		}
		sets := g.lines / g.ways
		for w := 0; w <= g.ways; w++ {
			c.Access(LineID(w * sets))
		}
		for w := 1; w <= g.ways; w++ {
			if !c.Access(LineID(w * sets)) {
				t.Fatalf("%+v: way %d of set 0 missing", g.cfg, w)
			}
		}
		if c.Access(0) {
			t.Fatalf("%+v: set 0 held more than %d ways", g.cfg, g.ways)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{0, 1}, {1024, 0}, {100, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStreamingEvictsEverything(t *testing.T) {
	c := New(Config{SizeBytes: 1024, Ways: 2}) // 8 lines
	for i := LineID(0); i < 100; i++ {
		c.Access(i)
	}
	// A second sweep over the first 8 lines: all misses (capacity).
	for i := LineID(0); i < 8; i++ {
		if c.Access(i) {
			t.Fatalf("line %d survived a 100-line stream through an 8-line cache", i)
		}
	}
}
