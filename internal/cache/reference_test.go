package cache

import (
	"math/rand"
	"testing"

	"hpe/internal/addrspace"
)

// refCache is the data cache as it was before it was built on tlb.TLB: one
// timestamp per line, a whole-row scan on every access. It exists only as
// the oracle for TestDifferentialAgainstTimestampCache.
type refCache struct {
	sets  int
	ways  int
	lines []refLine
	tick  uint64

	hits, misses uint64
}

type refLine struct {
	valid bool
	id    LineID
	used  uint64
}

func newRefCache(cfg Config) *refCache {
	total := cfg.SizeBytes / LineBytes
	return &refCache{sets: total / cfg.Ways, ways: cfg.Ways, lines: make([]refLine, total)}
}

func (c *refCache) row(id LineID) []refLine {
	idx := int(uint64(id) % uint64(c.sets))
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

func (c *refCache) Access(id LineID) bool {
	c.tick++
	row := c.row(id)
	victim := 0
	for i := range row {
		if row[i].valid && row[i].id == id {
			row[i].used = c.tick
			c.hits++
			return true
		}
		if !row[i].valid {
			victim = i
		} else if row[victim].valid && row[i].used < row[victim].used {
			victim = i
		}
	}
	row[victim] = refLine{valid: true, id: id, used: c.tick}
	c.misses++
	return false
}

func (c *refCache) InvalidatePage(p addrspace.PageID) {
	base := LineOf(p.BaseAddr())
	for l := base; l < base+(addrspace.PageBytes/LineBytes); l++ {
		row := c.row(l)
		for i := range row {
			if row[i].valid && row[i].id == l {
				row[i].valid = false
			}
		}
	}
}

// TestDifferentialAgainstTimestampCache drives the cache and the timestamp
// reference with identical random Access/InvalidatePage streams over Table
// I's L1D and L2 geometries and a tiny 2-way cache, and requires every
// Access result and the final Stats to agree. Timestamps are unique, so the
// reference has no LRU ties: any divergence is a behaviour change.
func TestDifferentialAgainstTimestampCache(t *testing.T) {
	for _, cfg := range []Config{L1Config(), L2Config(), {SizeBytes: 8 * LineBytes, Ways: 2}} {
		rng := rand.New(rand.NewSource(int64(cfg.SizeBytes + cfg.Ways)))
		c, ref := New(cfg), newRefCache(cfg)
		// A page universe three times the capacity, touched a few lines at
		// a time, keeps sets conflicted and pages partly resident when
		// they are invalidated.
		pages := 3 * cfg.SizeBytes / addrspace.PageBytes
		if pages < 4 {
			pages = 4
		}
		linesPerPage := addrspace.PageBytes / LineBytes
		for op := 0; op < 200000; op++ {
			p := addrspace.PageID(rng.Intn(pages))
			if rng.Intn(50) == 0 {
				c.InvalidatePage(p)
				ref.InvalidatePage(p)
				continue
			}
			l := LineOf(p.BaseAddr()) + LineID(rng.Intn(linesPerPage))
			if got, want := c.Access(l), ref.Access(l); got != want {
				t.Fatalf("%+v op %d: Access(%d) = %v, reference %v", cfg, op, l, got, want)
			}
		}
		if h, m := c.Stats(); h != ref.hits || m != ref.misses {
			t.Fatalf("%+v: stats %d/%d, reference %d/%d", cfg, h, m, ref.hits, ref.misses)
		}
	}
}
