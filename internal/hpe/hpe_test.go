package hpe

import (
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
	"hpe/internal/policy"
	"hpe/internal/slab"
	"hpe/internal/trace"
)

// plainTrace returns the trace over refs with no barriers or annotations.
func plainTrace(name string, refs []addrspace.PageID) *trace.Trace {
	tr, err := trace.New(name, refs, nil, nil, nil)
	if err != nil {
		panic(err) // unreachable: a plain trace breaks no rule of trace.New
	}
	return tr
}

// The compile-time check that HPE satisfies the driver contract.
var _ policy.Policy = (*HPE)(nil)

func idealFeedConfig() Config {
	cfg := DefaultConfig()
	cfg.IdealHitFeed = true
	return cfg
}

func pageOf(set addrspace.SetID, off int) addrspace.PageID {
	return addrspace.DefaultGeometry().PageAt(set, off)
}

// faultSet faults and maps every page of a set once.
func faultSet(h *HPE, set addrspace.SetID, seq int) {
	for off := 0; off < 16; off++ {
		p := pageOf(set, off)
		h.OnFault(p, seq)
		h.OnMapped(p, seq)
	}
}

func TestHPEVictimPagesInAddressOrder(t *testing.T) {
	h := New(idealFeedConfig())
	faultSet(h, 1, 0)
	faultSet(h, 2, 16)
	// Force classification and eviction. Both sets have counter 16.
	var prev addrspace.PageID
	for i := 0; i < 16; i++ {
		v := h.SelectVictim()
		if i > 0 && v <= prev {
			t.Fatalf("victims out of address order: %v after %v", v, prev)
		}
		if addrspace.DefaultGeometry().SetOf(v) == addrspace.DefaultGeometry().SetOf(prev) || i == 0 {
			prev = v
		}
		h.OnEvicted(v)
	}
	// After draining a whole set, its entry must leave the chain.
	if h.chain.Len() != 1 {
		t.Fatalf("chain len = %d after draining one set, want 1", h.chain.Len())
	}
}

func TestHPEClassifiesOnFirstVictim(t *testing.T) {
	h := New(idealFeedConfig())
	faultSet(h, 1, 0)
	if h.Stats().Classified {
		t.Fatal("classified before first SelectVictim")
	}
	h.SelectVictim()
	st := h.Stats()
	if !st.Classified {
		t.Fatal("not classified after SelectVictim")
	}
	// One set, counter 16 → small and regular → regular → MRU-C.
	if st.Category != CategoryRegular || st.ActiveStrategy != StrategyMRUC {
		t.Fatalf("category=%v strategy=%v", st.Category, st.ActiveStrategy)
	}
}

func TestHPEManualStrategyOverride(t *testing.T) {
	cfg := idealFeedConfig()
	s := StrategyLRU
	cfg.ManualStrategy = &s
	h := New(cfg)
	faultSet(h, 1, 0)
	h.SelectVictim()
	if h.Stats().ActiveStrategy != StrategyLRU {
		t.Fatal("manual strategy not honoured")
	}
}

func TestHPEIrregularClassification(t *testing.T) {
	h := New(idealFeedConfig())
	// Create many sets with irregular counters: touch 3 pages per set.
	for s := 0; s < 20; s++ {
		for off := 0; off < 3; off++ {
			p := pageOf(addrspace.SetID(s), off)
			h.OnFault(p, 0)
			h.OnMapped(p, 0)
		}
	}
	h.SelectVictim()
	st := h.Stats()
	if st.Category != CategoryIrregular2 {
		t.Fatalf("category = %v, want irregular#2 (counters all 3)", st.Category)
	}
	if st.ActiveStrategy != StrategyLRU {
		t.Fatalf("strategy = %v, want LRU", st.ActiveStrategy)
	}
}

func TestHPEMRUCPrefersCounterEqualSetSize(t *testing.T) {
	h := New(idealFeedConfig()) // interval 64: no rollover during setup
	faultSet(h, 1, 0)           // counter 16
	faultSet(h, 2, 16)          // counter 16, boosted below
	for i := 0; i < 16; i++ {   // counter 32
		h.OnWalkHit(pageOf(2, i%16), 32)
	}
	// Push both sets into the old partition.
	h.chain.rollover()
	h.chain.rollover()
	// MRU of old = set 2 (counter 32). MRU-C must skip it and pick set 1
	// (counter == page-set size).
	v := h.SelectVictim()
	if got := addrspace.DefaultGeometry().SetOf(v); got != 1 {
		t.Fatalf("victim from set %v, want 1 (counter == set size)", got)
	}
}

func TestHPEMRUCFallsBackToMinCounter(t *testing.T) {
	h := New(idealFeedConfig())
	faultSet(h, 1, 0)
	for i := 0; i < 32; i++ { // counter 16 + 32 hits = 48
		h.OnWalkHit(pageOf(1, i%16), 1)
	}
	faultSet(h, 2, 16)
	for i := 0; i < 16; i++ { // counter 16 + 16 = 32
		h.OnWalkHit(pageOf(2, i%16), 17)
	}
	h.chain.rollover()
	h.chain.rollover()
	// Old partition: set 1 (48), set 2 (32). No counter == 16 → min = set 2.
	v := h.SelectVictim()
	if got := addrspace.DefaultGeometry().SetOf(v); got != 2 {
		t.Fatalf("victim from set %v, want 2 (minimum counter)", got)
	}
	st := h.Stats()
	if st.Searches != 1 || st.Comparisons == 0 {
		t.Fatalf("search stats = %d searches / %d comparisons", st.Searches, st.Comparisons)
	}
}

func TestHPELRUFallbackWhenOldEmpty(t *testing.T) {
	h := New(idealFeedConfig())
	faultSet(h, 1, 0)
	faultSet(h, 2, 16)
	// No rollovers: everything is in the new partition; MRU-C must fall back
	// to LRU and take the chain head (set 1).
	v := h.SelectVictim()
	if got := addrspace.DefaultGeometry().SetOf(v); got != 1 {
		t.Fatalf("victim from set %v, want 1 (LRU fallback)", got)
	}
	if h.Stats().LRUFallbacks != 1 {
		t.Fatalf("LRUFallbacks = %d, want 1", h.Stats().LRUFallbacks)
	}
	if h.Stats().MiddleOrNewEvictions != 1 {
		t.Fatalf("MiddleOrNewEvictions = %d, want 1", h.Stats().MiddleOrNewEvictions)
	}
}

func TestHPEDivisionOnEvenOddSet(t *testing.T) {
	h := New(idealFeedConfig())
	// Touch only even pages of set 5 until the counter caps at 64:
	// 8 faults + 56 hits.
	for off := 0; off < 16; off += 2 {
		p := pageOf(5, off)
		h.OnFault(p, 0)
		h.OnMapped(p, 0)
	}
	for i := 0; i < 56; i++ {
		h.OnWalkHit(pageOf(5, (i%8)*2), 1)
	}
	st := h.Stats()
	if st.Divisions != 1 {
		t.Fatalf("divisions = %d, want 1", st.Divisions)
	}
	// Odd pages must now route to the secondary entry.
	h.OnFault(pageOf(5, 1), 100)
	h.OnMapped(pageOf(5, 1), 100)
	if h.chain.record(5).entry[secondary] == slab.Nil {
		t.Fatal("odd page did not create the secondary entry")
	}
	// Even pages still route to the primary.
	if h.chain.record(5).half(2) != primary {
		t.Fatal("even page routed to secondary")
	}
}

func TestHPEFullyPopulatedSetNeverDivides(t *testing.T) {
	h := New(idealFeedConfig())
	faultSet(h, 7, 0) // all 16 bits set
	for i := 0; i < 48; i++ {
		h.OnWalkHit(pageOf(7, i%16), 1) // counter reaches 64
	}
	if h.Stats().Divisions != 0 {
		t.Fatalf("divisions = %d, want 0 for fully populated set", h.Stats().Divisions)
	}
}

func TestHPEDivisionHistoryReused(t *testing.T) {
	h := New(idealFeedConfig())
	// Divide set 5 with evens.
	for off := 0; off < 16; off += 2 {
		p := pageOf(5, off)
		h.OnFault(p, 0)
		h.OnMapped(p, 0)
	}
	for i := 0; i < 56; i++ {
		h.OnWalkHit(pageOf(5, (i%8)*2), 1)
	}
	// Evict every resident page; the primary entry leaves the chain.
	for off := 0; off < 16; off += 2 {
		h.OnEvicted(pageOf(5, off))
	}
	if h.chain.Len() != 0 {
		t.Fatalf("chain len = %d after draining", h.chain.Len())
	}
	// Refault an even page: history routes it to the primary tag again.
	if h.chain.record(5).half(0) != primary {
		t.Fatal("history lost: even page routed to secondary")
	}
	if h.chain.record(5).half(3) != secondary {
		t.Fatal("history lost: odd page routed to primary")
	}
	if h.Stats().Divisions != 1 {
		t.Fatalf("division count changed: %d", h.Stats().Divisions)
	}
}

func TestHPEOnHitBatch(t *testing.T) {
	cfg := DefaultConfig() // production config: hits only via batches
	h := New(cfg)
	faultSet(h, 3, 0)
	e := primaryOf(h.chain, 3)
	if e.counter != 16 {
		t.Fatalf("counter = %d", e.counter)
	}
	counts := uint64(3 | 2<<(5*hir.CounterBits)) // 3 hits at offset 0, 2 at offset 5
	h.OnHitBatch([]hir.Record{{Set: 3, Counts: counts}})
	if e.counter != 21 {
		t.Fatalf("counter after batch = %d, want 21", e.counter)
	}
	// Batch for an unknown set is dropped.
	h.OnHitBatch([]hir.Record{{Set: 99, Counts: counts}})
	st := h.Stats()
	if st.HitBatches != 2 || st.HitBatchDrops != 1 {
		t.Fatalf("batch stats = %d/%d", st.HitBatches, st.HitBatchDrops)
	}
	if primaryOf(h.chain, 99) != nil {
		t.Fatal("batch created an entry for an evicted set")
	}
}

func TestHPEWalkHitIgnoredWithoutIdealFeed(t *testing.T) {
	h := New(DefaultConfig())
	faultSet(h, 3, 0)
	e := primaryOf(h.chain, 3)
	h.OnWalkHit(pageOf(3, 0), 1)
	if e.counter != 16 {
		t.Fatalf("walk hit leaked into chain: counter = %d", e.counter)
	}
}

func TestHPEIntervalRollover(t *testing.T) {
	cfg := idealFeedConfig()
	cfg.IntervalFaults = 4
	h := New(cfg)
	for i := 0; i < 8; i++ {
		p := pageOf(addrspace.SetID(i), 0)
		h.OnFault(p, i)
		h.OnMapped(p, i)
	}
	if got := h.Stats().Intervals; got != 2 {
		t.Fatalf("intervals = %d after 8 faults with interval 4, want 2", got)
	}
}

func TestHPEDynamicSwitchOnWrongEvictions(t *testing.T) {
	cfg := idealFeedConfig()
	cfg.Geometry = addrspace.NewGeometry(2) // 4-page sets: the wrong-eviction threshold is 4
	h := New(cfg)
	// Force irregular#2: 4-page sets with 3 touched pages.
	for s := 0; s < 30; s++ {
		for off := 0; off < 3; off++ {
			p := pageOf(addrspace.SetID(s), off)
			h.OnFault(p, 0)
			h.OnMapped(p, 0)
		}
	}
	h.SelectVictim() // classify: irregular#2 → LRU
	if h.Stats().ActiveStrategy != StrategyLRU {
		t.Fatal("expected LRU start")
	}
	// Evict pages and refault them immediately: wrong evictions for LRU.
	// The threshold is 4, so the fourth refault triggers the switch. (More
	// forced wrong evictions would eventually fail MRU-C too and ping-pong
	// back — the hysteresis only helps when one strategy actually works.)
	for i := 0; i < 4; i++ {
		v := h.SelectVictim()
		h.OnEvicted(v)
		h.OnFault(v, 0) // refault: hits the LRU FIFO
		h.OnMapped(v, 0)
	}
	st := h.Stats()
	if st.ActiveStrategy != StrategyMRUC {
		t.Fatalf("strategy = %v after thrashing, want switch to MRU-C", st.ActiveStrategy)
	}
	if st.Switches != 1 {
		t.Fatalf("switches = %d, want 1", st.Switches)
	}
	if st.WrongEvictions[StrategyLRU] < 4 {
		t.Fatalf("wrong evictions = %v", st.WrongEvictions)
	}
	// Timeline must show an LRU span followed by the MRU-C span.
	tl := st.Timeline
	if len(tl) != 2 || tl[0].Strategy != StrategyLRU || tl[1].Strategy != StrategyMRUC {
		t.Fatalf("timeline = %+v", tl)
	}
}

func TestHPERegularJumpGatedByFootprint(t *testing.T) {
	// 2-page sets: the wrong-eviction threshold is 2 and the jump floor is
	// 8 sets. faultSet's 16 pages fill eight of them.
	cfg := idealFeedConfig()
	cfg.Geometry = addrspace.NewGeometry(1)
	cfg.IntervalFaults = 16
	h := New(cfg)
	for s := 1; s <= 4; s++ {
		faultSet(h, addrspace.SetID(s), 0)
	}
	h.SelectVictim() // classify regular (all counters 2), old partition = 24 sets
	st := h.Stats()
	if st.Category != CategoryRegular {
		t.Fatalf("category = %v", st.Category)
	}
	// Wrong evictions: evict then refault.
	for i := 0; i < 4; i++ {
		v := h.SelectVictim()
		h.OnEvicted(v)
		h.OnFault(v, 0)
		h.OnMapped(v, 0)
	}
	st = h.Stats()
	if st.SearchJump == 0 || len(st.Jumps) == 0 {
		t.Fatalf("regular app did not jump: %+v", st)
	}
	if st.ActiveStrategy != StrategyMRUC {
		t.Fatal("regular app must stay on MRU-C")
	}

	// Same scenario with a footprint below the floor: one interval of
	// faults leaves the old partition empty, so no jump.
	h2 := New(cfg)
	faultSet(h2, 1, 0)
	h2.SelectVictim()
	for i := 0; i < 4; i++ {
		v := h2.SelectVictim()
		h2.OnEvicted(v)
		h2.OnFault(v, 0)
		h2.OnMapped(v, 0)
	}
	if h2.Stats().SearchJump != 0 {
		t.Fatal("small-footprint regular app jumped")
	}
}

func TestHPEAdjustmentDisabled(t *testing.T) {
	cfg := idealFeedConfig()
	cfg.DynamicAdjustment = false
	h := New(cfg)
	for s := 0; s < 30; s++ {
		for off := 0; off < 3; off++ {
			p := pageOf(addrspace.SetID(s), off)
			h.OnFault(p, 0)
			h.OnMapped(p, 0)
		}
	}
	h.SelectVictim()
	// 32 refaults within one interval: twice the wrong-eviction threshold.
	for i := 0; i < 32; i++ {
		v := h.SelectVictim()
		h.OnEvicted(v)
		h.OnFault(v, 0)
		h.OnMapped(v, 0)
	}
	st := h.Stats()
	if st.WrongEvictions[StrategyLRU] < cfg.wrongEvictionThreshold() {
		t.Fatalf("wrong evictions = %v, never reached the trigger", st.WrongEvictions)
	}
	if st.Switches != 0 {
		t.Fatal("adjustment ran while disabled")
	}
}

func TestHPEBeatsLRUOnThrashing(t *testing.T) {
	// End-to-end behaviour check via the timing-free replay: a cyclic
	// pattern over 40 sets with memory for 30 sets. HPE (ideal hit feed)
	// must fault far less than LRU.
	g := addrspace.DefaultGeometry()
	var refs []addrspace.PageID
	for pass := 0; pass < 6; pass++ {
		for s := 0; s < 40; s++ {
			for off := 0; off < 16; off++ {
				refs = append(refs, g.PageAt(addrspace.SetID(s), off))
			}
		}
	}
	tr := plainTrace("thrash", refs)
	capacity := 30 * 16
	lru := policy.Replay(tr, policy.NewLRU(), capacity)
	hpe := policy.Replay(tr, New(idealFeedConfig()), capacity)
	if lru.Faults != uint64(tr.Len()) {
		t.Fatalf("LRU faults = %d, want total thrash %d", lru.Faults, tr.Len())
	}
	if hpe.Faults*10 > lru.Faults*6 {
		t.Fatalf("HPE faults = %d, want < 60%% of LRU's %d", hpe.Faults, lru.Faults)
	}
}

func TestHPEMatchesLRUOnStreaming(t *testing.T) {
	g := addrspace.DefaultGeometry()
	var refs []addrspace.PageID
	for s := 0; s < 60; s++ {
		for off := 0; off < 16; off++ {
			refs = append(refs, g.PageAt(addrspace.SetID(s), off))
		}
	}
	tr := plainTrace("stream", refs)
	capacity := 45 * 16
	lru := policy.Replay(tr, policy.NewLRU(), capacity)
	hpe := policy.Replay(tr, New(idealFeedConfig()), capacity)
	if hpe.Faults != lru.Faults {
		t.Fatalf("streaming: HPE %d faults vs LRU %d (both should be compulsory only)",
			hpe.Faults, lru.Faults)
	}
}

func TestHPEConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.IntervalFaults = 0
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	New(bad)
}

// TestConfigRejectsWideSets: a set's fault and residency bits are 32-bit
// masks, so a 64-page set would silently drop offsets 32..63.
func TestConfigRejectsWideSets(t *testing.T) {
	if err := ConfigForGeometry(addrspace.NewGeometry(5), 64).validate(); err != nil {
		t.Fatalf("32-page sets rejected: %v", err)
	}
	if err := ConfigForGeometry(addrspace.NewGeometry(6), 64).validate(); err == nil {
		t.Fatal("64-page sets accepted")
	}
}

func TestConfigForGeometryScaling(t *testing.T) {
	g := addrspace.NewGeometry(5) // 32-page sets
	cfg := ConfigForGeometry(g, 128)
	if cfg.counterCap() != 128 || cfg.fifoDepth() != 256 ||
		cfg.wrongEvictionThreshold() != 32 || cfg.jumpFloor() != 128 {
		t.Fatalf("derived parameters = %d/%d/%d/%d", cfg.counterCap(), cfg.fifoDepth(),
			cfg.wrongEvictionThreshold(), cfg.jumpFloor())
	}
}

func TestEvictionFIFO(t *testing.T) {
	f := newEvictionFIFO(3)
	f.push(1)
	f.push(2)
	f.push(3)
	if !f.contains(1) || !f.contains(3) || f.len() != 3 {
		t.Fatal("FIFO membership wrong")
	}
	f.push(4) // evicts 1
	if f.contains(1) || !f.contains(4) {
		t.Fatal("FIFO did not evict oldest")
	}
	// Duplicates: push 4 again, then push twice more; one 4 remains.
	f.push(4)
	f.push(5)
	f.push(6) // buffer: 4,5,6 — the older 4 slid out but a newer one was pushed...
	if !f.contains(4) {
		t.Fatal("duplicate handling lost a live entry")
	}
	f.push(7)
	f.push(8) // buffer: 6,7,8
	if f.contains(4) || f.contains(5) {
		t.Fatal("stale entries retained")
	}
}

func TestStrategyShare(t *testing.T) {
	s := Stats{
		Faults: 100,
		Timeline: []StrategySpan{
			{Strategy: StrategyLRU, FromFault: 0, ToFault: 25},
			{Strategy: StrategyMRUC, FromFault: 25, ToFault: 100},
		},
	}
	if got := s.StrategyShare(StrategyLRU); got != 0.25 {
		t.Fatalf("LRU share = %f", got)
	}
	if got := s.StrategyShare(StrategyMRUC); got != 0.75 {
		t.Fatalf("MRU-C share = %f", got)
	}
}

func BenchmarkHPEReplayThrashing(b *testing.B) {
	g := addrspace.DefaultGeometry()
	var refs []addrspace.PageID
	for pass := 0; pass < 4; pass++ {
		for s := 0; s < 100; s++ {
			for off := 0; off < 16; off++ {
				refs = append(refs, g.PageAt(addrspace.SetID(s), off))
			}
		}
	}
	tr := plainTrace("bench", refs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Replay(tr, New(idealFeedConfig()), 75*16)
	}
}

// Property: the wrong-eviction FIFO matches a sliding-window model — a page
// is reported contained iff it is among the last `depth` pushes.
func TestEvictionFIFOModelProperty(t *testing.T) {
	f := func(pushes []uint8, depthSeed uint8) bool {
		depth := 1 + int(depthSeed%32)
		fifo := newEvictionFIFO(depth)
		var window []addrspace.PageID
		for _, raw := range pushes {
			p := addrspace.PageID(raw % 24)
			fifo.push(p)
			window = append(window, p)
			if len(window) > depth {
				window = window[1:]
			}
			if fifo.len() != len(window) {
				return false
			}
			// Membership must match the window exactly.
			inWindow := map[addrspace.PageID]bool{}
			for _, q := range window {
				inWindow[q] = true
			}
			for probe := addrspace.PageID(0); probe < 24; probe++ {
				if fifo.contains(probe) != inWindow[probe] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
