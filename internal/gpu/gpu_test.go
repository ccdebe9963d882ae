package gpu

import (
	"slices"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// plainTrace returns the trace over refs with no barriers or annotations.
func plainTrace(name string, refs []addrspace.PageID) *trace.Trace {
	tr, err := trace.New(name, refs, nil, nil, nil)
	if err != nil {
		panic(err) // unreachable: a plain trace breaks no rule of trace.New
	}
	return tr
}

// smallConfig scales the system down so unit tests run in microseconds of
// simulated time.
func smallConfig(memoryPages int) Config {
	cfg := DefaultConfig(memoryPages)
	cfg.SMs = 4
	cfg.WarpsPerSM = 8
	cfg.Driver.FaultLatency = 1000
	return cfg
}

func streamTrace(sets int) *trace.Trace {
	b := workload.NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	workload.Streaming(b, sets, 2)
	return b.Build("stream")
}

func thrashTrace(sets, passes int) *trace.Trace {
	b := workload.NewBuilder(addrspace.DefaultGeometry(), 0, 1)
	workload.Thrashing(b, sets, passes, 2)
	return plainTrace("thrash", b.Build("thrash").Refs) // without its kernel barriers
}

func TestCompulsoryFaultsOnly(t *testing.T) {
	tr := streamTrace(8) // 128 pages
	res := Run(smallConfig(256), tr, policy.NewLRU())
	if res.Faults != 128 {
		t.Fatalf("faults = %d, want 128 compulsory", res.Faults)
	}
	if res.Evictions != 0 {
		t.Fatalf("evictions = %d with ample memory", res.Evictions)
	}
	if res.Accesses != uint64(tr.Len()) {
		t.Fatalf("accesses = %d, want %d", res.Accesses, tr.Len())
	}
	if res.TimedOut {
		t.Fatal("unexpected timeout")
	}
}

func TestOversubscriptionEvictions(t *testing.T) {
	tr := streamTrace(8) // 128 pages footprint
	res := Run(smallConfig(96), tr, policy.NewLRU())
	if res.Faults != 128 {
		t.Fatalf("faults = %d (streaming never refaults)", res.Faults)
	}
	if res.Evictions != 128-96 {
		t.Fatalf("evictions = %d, want %d", res.Evictions, 128-96)
	}
}

func TestThrashingHurtsLRUMoreThanIdeal(t *testing.T) {
	tr := thrashTrace(10, 4) // 160 pages, 4 passes
	cfg := smallConfig(120)  // 75% of footprint
	lru := Run(cfg, tr, policy.NewLRU())
	ideal := Run(cfg, tr, policy.NewIdeal(trace.BuildFutureIndex(tr)))
	if lru.Faults <= ideal.Faults {
		t.Fatalf("LRU faults %d <= Ideal %d on thrashing", lru.Faults, ideal.Faults)
	}
	if lru.Cycles <= ideal.Cycles {
		t.Fatalf("LRU cycles %d <= Ideal %d", lru.Cycles, ideal.Cycles)
	}
	if ideal.IPC <= lru.IPC {
		t.Fatalf("Ideal IPC %f <= LRU IPC %f", ideal.IPC, lru.IPC)
	}
}

func TestDeterminism(t *testing.T) {
	tr := thrashTrace(8, 3)
	cfg := smallConfig(100)
	a := Run(cfg, tr, policy.NewLRU())
	b := Run(cfg, tr, policy.NewLRU())
	if a.Cycles != b.Cycles || a.Faults != b.Faults || a.Evictions != b.Evictions {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestTLBAccounting(t *testing.T) {
	tr := streamTrace(8)
	res := Run(smallConfig(256), tr, policy.NewLRU())
	if res.L1Hits+res.L1Misses != res.Accesses {
		t.Fatalf("L1 lookups %d != accesses %d", res.L1Hits+res.L1Misses, res.Accesses)
	}
	// Streaming with 2 adjacent duplicates: the duplicate usually hits (L1,
	// L2, or a merged walk); hits must be non-zero.
	if res.L1Hits+res.L2Hits+res.WalkMerges == 0 {
		t.Fatal("no TLB hits or walk merges on duplicated stream")
	}
}

func TestWalkHitsReachHIR(t *testing.T) {
	// Two passes with memory large enough to keep everything resident; the
	// footprint (640 pages) exceeds the L2 TLB reach (512 entries) so the
	// second pass actually reaches the walker, and those walks are hits.
	tr := thrashTrace(40, 2)
	cfg := smallConfig(1024)
	cfg.UseHIR = true
	h := hpe.New(hpe.DefaultConfig())
	res := Run(cfg, tr, h)
	if res.WalkHits == 0 {
		t.Fatal("no walk hits on a two-pass resident workload")
	}
	if res.HIR == nil || res.HIR.HitsRecorded == 0 {
		t.Fatalf("HIR stats = %+v", res.HIR)
	}
	if res.HPE == nil {
		t.Fatal("HPE stats missing")
	}
}

func TestHPEStatsExposedAndBatchesFlow(t *testing.T) {
	tr := thrashTrace(48, 3) // 768 pages: beyond the L2 TLB reach
	cfg := smallConfig(576)  // 75%
	cfg.UseHIR = true
	res := Run(cfg, tr, hpe.New(hpe.DefaultConfig()))
	if res.HPE == nil || !res.HPE.Classified {
		t.Fatalf("HPE did not classify: %+v", res.HPE)
	}
	if res.HPE.Faults != res.Faults {
		t.Fatalf("HPE saw %d faults, driver serviced %d", res.HPE.Faults, res.Faults)
	}
	if res.Driver.HIRTransferBytes == 0 {
		t.Fatal("no HIR transfers charged")
	}
	if res.HPE.HitBatches == 0 {
		t.Fatal("no hit batches delivered")
	}
}

func TestHPEOutperformsLRUOnThrashingEndToEnd(t *testing.T) {
	tr := thrashTrace(40, 4) // 640 pages
	cfg := smallConfig(480)  // 75%
	lru := Run(cfg, tr, policy.NewLRU())
	cfgH := cfg
	cfgH.UseHIR = true
	hres := Run(cfgH, tr, hpe.New(hpe.DefaultConfig()))
	if hres.Faults >= lru.Faults {
		t.Fatalf("HPE faults %d >= LRU %d on Type II", hres.Faults, lru.Faults)
	}
	if hres.IPC <= lru.IPC {
		t.Fatalf("HPE IPC %f <= LRU IPC %f", hres.IPC, lru.IPC)
	}
}

func TestInstructionAccounting(t *testing.T) {
	tr := streamTrace(4)
	cfg := smallConfig(128)
	cfg.ComputeGap = 7
	res := Run(cfg, tr, policy.NewLRU())
	if res.Instructions != res.Accesses*8 {
		t.Fatalf("instructions = %d, want accesses×8", res.Instructions)
	}
	if res.IPC <= 0 {
		t.Fatal("IPC not computed")
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	tr := thrashTrace(20, 4)
	cfg := smallConfig(200)
	cfg.MaxCycles = 500
	res := Run(cfg, tr, policy.NewLRU())
	if !res.TimedOut {
		t.Fatal("run did not report timeout")
	}
	if res.Cycles > 500 {
		t.Fatalf("clock ran past the limit: %d", res.Cycles)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{SMs: 0, WarpsPerSM: 1, MemoryPages: 1}, streamTrace(1), policy.NewLRU()) },
		func() {
			cfg := smallConfig(0)
			cfg.MemoryPages = 0
			New(cfg, streamTrace(1), policy.NewLRU())
		},
		func() { // a slot number past a page record's 16-bit cells
			cfg := smallConfig(16)
			cfg.L1TLBEntries, cfg.L1TLBWays = 1<<16, 1<<16
			New(cfg, streamTrace(1), policy.NewLRU())
		},
		func() { // more warps than a record's MSHR cell can name lists for
			cfg := smallConfig(16)
			cfg.SMs, cfg.WarpsPerSM = 1<<10, 1<<6
			New(cfg, streamTrace(1), policy.NewLRU())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config accepted")
				}
			}()
			f()
		}()
	}
}

func TestWalkCoalescing(t *testing.T) {
	// Many simultaneous accesses to one page: one walk, one fault.
	refs := make([]addrspace.PageID, 64)
	tr := plainTrace("samepage", refs) // all page 0
	res := Run(smallConfig(4), tr, policy.NewLRU())
	if res.Faults != 1 {
		t.Fatalf("faults = %d, want 1 for a single page", res.Faults)
	}
	if res.Walks+res.WalkMerges+res.L1Hits+res.L2Hits != 64 {
		t.Fatalf("accesses unaccounted: walks=%d merges=%d l1=%d l2=%d",
			res.Walks, res.WalkMerges, res.L1Hits, res.L2Hits)
	}
}

func TestAllCatalogAppsRunUnderAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog smoke test skipped in -short mode")
	}
	// Smoke: the three smallest apps under every policy at 75%.
	for _, abbr := range []string{"STN", "CUT", "SGM"} {
		app, ok := workload.ByAbbr(abbr)
		if !ok {
			t.Fatalf("app %s missing", abbr)
		}
		tr := app.Generate()
		capacity := tr.Footprint() * 3 / 4
		cfg := DefaultConfig(capacity)
		cfg.ComputeGap = 2
		pols := map[string]policy.Policy{
			"LRU":       policy.NewLRU(),
			"Random":    policy.NewRandom(1),
			"RRIP":      policy.NewRRIP(policy.DefaultRRIPConfig()),
			"CLOCK-Pro": policy.NewClockPro(capacity, policy.DefaultColdTarget),
			"Ideal":     policy.NewIdeal(trace.BuildFutureIndex(tr)),
		}
		for name, pol := range pols {
			res := Run(cfg, tr, pol)
			if res.Faults == 0 || res.TimedOut {
				t.Errorf("%s/%s: faults=%d timedOut=%v", abbr, name, res.Faults, res.TimedOut)
			}
		}
		cfgH := cfg
		cfgH.UseHIR = true
		res := Run(cfgH, tr, hpe.New(hpe.DefaultConfig()))
		if res.Faults == 0 || res.TimedOut {
			t.Errorf("%s/HPE: faults=%d timedOut=%v", abbr, res.Faults, res.TimedOut)
		}
	}
}

func BenchmarkSimulateThrashingLRU(b *testing.B) {
	tr := thrashTrace(40, 4)
	cfg := smallConfig(480)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, tr, policy.NewLRU())
	}
}

func BenchmarkSimulateThrashingHPE(b *testing.B) {
	tr := thrashTrace(40, 4)
	cfg := smallConfig(480)
	cfg.UseHIR = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, tr, hpe.New(hpe.DefaultConfig()))
	}
}

func TestPWCDesignEndToEnd(t *testing.T) {
	tr := streamTrace(16)
	cfg := smallConfig(512)
	cfg.Translation = DesignPWC
	res := Run(cfg, tr, policy.NewLRU())
	if res.PTW == nil || res.PTW.Walks == 0 {
		t.Fatalf("PWC design produced no walker stats: %+v", res.PTW)
	}
	if res.L2Hits != 0 {
		t.Fatalf("PWC design consulted the L2 TLB (%d hits)", res.L2Hits)
	}
	if res.Faults != uint64(tr.Footprint()) {
		t.Fatalf("faults = %d, want compulsory %d", res.Faults, tr.Footprint())
	}
	// The default design reports no walker stats.
	base := Run(smallConfig(512), tr, policy.NewLRU())
	if base.PTW != nil {
		t.Fatal("L2TLB design exposed PTW stats")
	}
}

func TestPrepopulateEliminatesFaults(t *testing.T) {
	tr := thrashTrace(8, 3)
	cfg := smallConfig(256)
	cfg.Prepopulate = true
	res := Run(cfg, tr, policy.NewLRU())
	if res.Faults != 0 || res.Evictions != 0 {
		t.Fatalf("prepopulated run faulted: %d faults, %d evictions", res.Faults, res.Evictions)
	}
	if res.Accesses != uint64(tr.Len()) {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	// Prepopulation requires capacity >= footprint.
	tight := smallConfig(100)
	tight.Prepopulate = true
	defer func() {
		if recover() == nil {
			t.Error("undersized prepopulate accepted")
		}
	}()
	Run(tight, tr, policy.NewLRU())
}

func TestPrefetchEndToEnd(t *testing.T) {
	tr := streamTrace(32) // 512 pages, spatially dense
	cfg := smallConfig(512)
	cfg.Driver.PrefetchPages = 15
	res := Run(cfg, tr, policy.NewLRU())
	if res.Faults+res.Driver.Prefetched < uint64(tr.Footprint()) {
		t.Fatalf("faults %d + prefetched %d below footprint %d",
			res.Faults, res.Driver.Prefetched, tr.Footprint())
	}
	base := Run(smallConfig(512), tr, policy.NewLRU())
	// Most fault events must be satisfied by block migration (batched or
	// prefetched), not individual 20 µs services.
	expensive := res.Faults - res.Driver.Batched
	if expensive*4 > base.Faults {
		t.Fatalf("prefetching left %d individually-serviced faults vs %d baseline; want >4x reduction",
			expensive, base.Faults)
	}
	if res.Cycles*2 > base.Cycles {
		t.Fatalf("prefetching did not speed up enough: %d vs %d cycles", res.Cycles, base.Cycles)
	}
}

func TestDataPathEndToEnd(t *testing.T) {
	tr := thrashTrace(8, 3)
	cfg := smallConfig(256)
	cfg.ModelDataPath = true
	res := Run(cfg, tr, policy.NewLRU())
	if res.DataL1Hits+res.DataL1Misses != res.Accesses {
		t.Fatalf("L1D lookups %d != accesses %d", res.DataL1Hits+res.DataL1Misses, res.Accesses)
	}
	// Every L1D miss probes the L2.
	if res.DataL2Hits+res.DataL2Misses != res.DataL1Misses {
		t.Fatalf("L2D lookups %d != L1D misses %d", res.DataL2Hits+res.DataL2Misses, res.DataL1Misses)
	}
	// Every L2 miss goes to DRAM.
	if res.DRAM == nil || res.DRAM.Accesses != res.DataL2Misses {
		t.Fatalf("DRAM accesses %v != L2D misses %d", res.DRAM, res.DataL2Misses)
	}
	// The data path adds latency: same run without it finishes sooner.
	base := Run(smallConfig(256), tr, policy.NewLRU())
	if res.Cycles <= base.Cycles {
		t.Fatalf("data path added no time: %d vs %d", res.Cycles, base.Cycles)
	}
	if base.DRAM != nil || base.DataL1Hits+base.DataL1Misses != 0 {
		t.Fatal("data-path stats leaked into a run without the data path")
	}
	// Fault behaviour is unaffected by data microtiming.
	if res.Faults != base.Faults || res.Evictions != base.Evictions {
		t.Fatalf("data path changed paging: %d/%d vs %d/%d faults/evictions",
			res.Faults, res.Evictions, base.Faults, base.Evictions)
	}
}

func TestDataPathPageInvalidation(t *testing.T) {
	// Under oversubscription the evicted pages' lines must leave the caches:
	// a refault of a page must miss L1D/L2D for its first line touch. We
	// assert the aggregate: with heavy thrashing, the L2D hit count stays
	// low relative to a fully resident run.
	tr := thrashTrace(40, 3) // 640 pages
	over := smallConfig(480)
	over.ModelDataPath = true
	resident := smallConfig(1024)
	resident.ModelDataPath = true
	a := Run(over, tr, policy.NewLRU())
	b := Run(resident, tr, policy.NewLRU())
	if a.DataL2Hits >= b.DataL2Hits {
		t.Fatalf("thrashing run kept more L2D hits (%d) than resident run (%d); invalidation broken?",
			a.DataL2Hits, b.DataL2Hits)
	}
}

// wakeLog wraps the simulator's faultWaker and records, for each wake, the
// page and the trace positions of the accesses on its fault's waiter chain.
type wakeLog struct {
	s     *Simulator
	pages []addrspace.PageID
	seqs  [][]int
}

func (w *wakeLog) Wake(p addrspace.PageID) {
	var seqs []int
	for warp := int32(w.s.pages.Lookup(p)[recFault]) - 1; warp != noSlot; warp = w.s.slots[warp].next {
		seqs = append(seqs, w.s.slots[warp].seq)
	}
	w.pages = append(w.pages, p)
	w.seqs = append(w.seqs, seqs)
	(*faultWaker)(w.s).Wake(p)
}

// TestCoalescedWalksWakeOnce checks the wake contract end to end: a walk
// that ends while its page's fault is pending joins that fault, the driver
// wakes the page once, and the accesses resume in arrival order, the first
// walk's waiters first. One SM issues an access per cycle. Access 0 walks
// page 0 and faults; accesses 1–19 share one walk of page 100 and queue its
// fault; access 20 issues after the first walk ended, so it walks page 0
// again, access 21 merges into that walk, and the walk coalesces onto the
// pending fault.
func TestCoalescedWalksWakeOnce(t *testing.T) {
	refs := []addrspace.PageID{0}
	for range 19 {
		refs = append(refs, 100)
	}
	refs = append(refs, 0, 0)
	cfg := smallConfig(16)
	cfg.SMs, cfg.WarpsPerSM = 1, len(refs)
	s := New(cfg, plainTrace("coalesce", refs), policy.NewLRU())
	w := &wakeLog{s: s}
	s.driver.SetWaker(w)
	res := s.Run()
	if res.Accesses != uint64(len(refs)) || res.Faults != 2 || res.Coalesced != 1 || res.Walks != 3 {
		t.Fatalf("accesses=%d faults=%d coalesced=%d walks=%d, want %d/2/1/3",
			res.Accesses, res.Faults, res.Coalesced, res.Walks, len(refs))
	}
	if !slices.Equal(w.pages, []addrspace.PageID{0, 100}) {
		t.Fatalf("woken pages %v, want each faulted page once: [0 100]", w.pages)
	}
	if !slices.Equal(w.seqs[0], []int{0, 20, 21}) {
		t.Fatalf("page 0 woke accesses %v, want [0 20 21]: the first walk's, then the coalesced walk's in arrival order", w.seqs[0])
	}
}

// TestHIRTakesPolicyGeometry: the HIR keys its entries by the page sets of
// the HPE instance it drains to, so a hand-built configuration with a
// non-default set size loses no drained record. An HIR on 16-page sets
// makes HPE drop 505 of HSD@75's records at 8-page sets and 501 at 32.
func TestHIRTakesPolicyGeometry(t *testing.T) {
	app, _ := workload.ByAbbr("HSD")
	tr := app.Generate()
	for _, shift := range []uint{3, 5} {
		cfg := DefaultConfig((tr.Footprint()*3 + 3) / 4)
		cfg.UseHIR = true
		pol := hpe.New(hpe.ConfigForGeometry(addrspace.NewGeometry(shift), hpe.DefaultIntervalFaults))
		res := Run(cfg, tr, pol)
		if res.HPE == nil || res.HPE.HitBatches == 0 {
			t.Fatalf("shift %d: HPE received no HIR drains", shift)
		}
		if res.HPE.HitBatchDrops != 0 {
			t.Errorf("shift %d: HPE dropped %d of the HIR's drained records", shift, res.HPE.HitBatchDrops)
		}
	}
}
