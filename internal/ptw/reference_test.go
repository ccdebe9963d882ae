package ptw

import (
	"math/rand"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/sim"
)

// refWalker is the walker as it was before its page-walk cache was built on
// tlb.TLB: one timestamp per PWC entry, a whole-row scan per lookup and
// fill. It exists only as the oracle for TestDifferentialAgainstTimestampPWC.
type refWalker struct {
	cfg  Config
	rows int
	pwc  []refPWCEntry
	tick uint64

	walks       uint64
	levelsRead  uint64
	pwcHits     uint64
	pwcLookups  uint64
	fullyCached uint64
}

type refPWCKey struct {
	level  int
	prefix uint64
}

type refPWCEntry struct {
	valid bool
	key   refPWCKey
	used  uint64
}

func newRefWalker(cfg Config) *refWalker {
	return &refWalker{cfg: cfg, rows: cfg.PWCEntries / cfg.PWCWays, pwc: make([]refPWCEntry, cfg.PWCEntries)}
}

func (w *refWalker) row(k refPWCKey) []refPWCEntry {
	h := k.prefix*uint64(Levels) + uint64(k.level)
	idx := int(h % uint64(w.rows))
	return w.pwc[idx*w.cfg.PWCWays : (idx+1)*w.cfg.PWCWays]
}

func (w *refWalker) lookup(k refPWCKey) bool {
	w.tick++
	w.pwcLookups++
	row := w.row(k)
	for i := range row {
		if row[i].valid && row[i].key == k {
			row[i].used = w.tick
			w.pwcHits++
			return true
		}
	}
	return false
}

func (w *refWalker) fill(k refPWCKey) {
	w.tick++
	row := w.row(k)
	victim := 0
	for i := range row {
		if row[i].valid && row[i].key == k {
			row[i].used = w.tick
			return
		}
		if !row[i].valid {
			victim = i
			break
		}
		if row[i].used < row[victim].used {
			victim = i
		}
	}
	row[victim] = refPWCEntry{valid: true, key: k, used: w.tick}
}

func (w *refWalker) WalkLatency(p addrspace.PageID) sim.Cycle {
	w.walks++
	start := Levels
	for level := 1; level < Levels; level++ {
		if w.lookup(refPWCKey{level: level, prefix: prefixFor(p, level)}) {
			start = level
			break
		}
	}
	if start == 1 {
		w.fullyCached++
	}
	reads := uint64(start)
	w.levelsRead += reads
	for level := start - 1; level >= 1; level-- {
		w.fill(refPWCKey{level: level, prefix: prefixFor(p, level)})
	}
	return sim.Cycle(reads) * w.cfg.MemAccessLatency
}

// TestDifferentialAgainstTimestampPWC drives the walker and the timestamp
// reference with identical random walks over sparse pages, so every level
// of the PWC replaces, and requires every latency and the final Stats to
// agree.
func TestDifferentialAgainstTimestampPWC(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{PWCEntries: 8, PWCWays: 2, MemAccessLatency: 7},
		{PWCEntries: 4, PWCWays: 4, MemAccessLatency: 1},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.PWCEntries*10 + cfg.PWCWays)))
		w, ref := New(cfg), newRefWalker(cfg)
		for i := 0; i < 100000; i++ {
			// A few hundred level-1 regions spread over a handful of
			// level-2 and level-3 regions: far more subtrees than entries,
			// with enough reuse at each level for hits.
			p := addrspace.PageID(rng.Intn(4))<<(3*bitsPerLevel) |
				addrspace.PageID(rng.Intn(8))<<(2*bitsPerLevel) |
				addrspace.PageID(rng.Intn(16))<<bitsPerLevel |
				addrspace.PageID(rng.Intn(1<<bitsPerLevel))
			if got, want := w.WalkLatency(p), ref.WalkLatency(p); got != want {
				t.Fatalf("%+v walk %d: WalkLatency(%v) = %d, reference %d", cfg, i, p, got, want)
			}
		}
		want := Stats{Walks: ref.walks, LevelsRead: ref.levelsRead, PWCLookups: ref.pwcLookups,
			PWCHits: ref.pwcHits, FullyCached: ref.fullyCached,
			MeanLevels: float64(ref.levelsRead) / float64(ref.walks)}
		if got := w.Stats(); got != want {
			t.Fatalf("%+v: stats %+v, reference %+v", cfg, got, want)
		}
	}
}
