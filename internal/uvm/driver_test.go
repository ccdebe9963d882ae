package uvm

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hpe/internal/addrspace"
	"hpe/internal/hir"
	"hpe/internal/policy"
	"hpe/internal/sim"
)

// recordingPolicy wraps LRU and logs the callback sequence.
type recordingPolicy struct {
	*policy.LRU
	calls []string
}

func (r *recordingPolicy) OnFault(p addrspace.PageID, seq int) {
	r.calls = append(r.calls, "fault")
	r.LRU.OnFault(p, seq)
}
func (r *recordingPolicy) OnMapped(p addrspace.PageID, seq int) {
	r.calls = append(r.calls, "mapped")
	r.LRU.OnMapped(p, seq)
}
func (r *recordingPolicy) OnEvicted(p addrspace.PageID) {
	r.calls = append(r.calls, "evicted")
	r.LRU.OnEvicted(p)
}

// funcWaker keeps the functions blocked on each page, in arrival order, and
// runs and forgets them when the page is woken; wakes counts Wake calls.
type funcWaker struct {
	blocked map[addrspace.PageID][]func()
	wakes   int
}

func (w *funcWaker) Wake(p addrspace.PageID) {
	w.wakes++
	fns := w.blocked[p]
	delete(w.blocked, p)
	for _, fn := range fns {
		fn()
	}
}

// waker returns d's funcWaker, registering one on first use.
func waker(d *Driver) *funcWaker {
	w, ok := d.waker.(*funcWaker)
	if !ok {
		w = &funcWaker{blocked: map[addrspace.PageID][]func(){}}
		d.SetWaker(w)
	}
	return w
}

// fault raises a far-fault on page p whose wakeup runs fn.
func fault(d *Driver, p addrspace.PageID, seq int, fn func()) {
	w := waker(d)
	w.blocked[p] = append(w.blocked[p], fn)
	d.Fault(p, seq)
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.FaultLatency = 100
	return cfg
}

func TestFaultServiceLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 4, policy.NewLRU(), nil, nil)
	woken := sim.Cycle(0)
	fault(d, 1, 0, func() { woken = eng.Now() })
	eng.Run()
	if woken != 100 {
		t.Fatalf("fault completed at %d, want 100", woken)
	}
	if !d.Resident(1) {
		t.Fatal("page not mapped after fault")
	}
	if d.Stats().FaultsServiced != 1 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestFaultsServiceSerially(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 4, policy.NewLRU(), nil, nil)
	var times []sim.Cycle
	for i := 1; i <= 3; i++ {
		p := addrspace.PageID(i)
		fault(d, p, i, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	want := []sim.Cycle{100, 200, 300}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completion times %v, want %v (single-server queue)", times, want)
		}
	}
}

func TestDuplicateFaultsCoalesce(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 4, policy.NewLRU(), nil, nil)
	woken := 0
	for i := 0; i < 5; i++ {
		fault(d, 7, i, func() { woken++ })
	}
	eng.Run()
	st := d.Stats()
	if st.FaultsServiced != 1 || st.Coalesced != 4 {
		t.Fatalf("serviced=%d coalesced=%d, want 1/4", st.FaultsServiced, st.Coalesced)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want all 5 waiters", woken)
	}
}

func TestFaultOnResidentPageWakesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 4, policy.NewLRU(), nil, nil)
	fault(d, 1, 0, func() {})
	eng.Run()
	woken := false
	fault(d, 1, 1, func() { woken = true })
	if !woken {
		t.Fatal("resident-page fault did not wake synchronously")
	}
	if d.Stats().FaultsServiced != 1 {
		t.Fatal("resident-page fault was queued")
	}
}

func TestEvictionOnFullMemory(t *testing.T) {
	eng := sim.NewEngine()
	rec := &recordingPolicy{LRU: policy.NewLRU()}
	invalidated := []addrspace.PageID{}
	d := New(testConfig(), eng, 2, rec, nil, func(p addrspace.PageID) {
		invalidated = append(invalidated, p)
	})
	for i := 1; i <= 3; i++ {
		fault(d, addrspace.PageID(i), i, func() {})
	}
	eng.Run()
	st := d.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if len(invalidated) != 1 || invalidated[0] != 1 {
		t.Fatalf("invalidated = %v, want [1] (LRU victim)", invalidated)
	}
	if d.Resident(1) || !d.Resident(2) || !d.Resident(3) {
		t.Fatal("wrong residency after eviction")
	}
	// Callback ordering for the third fault: fault, evicted, mapped.
	tail := rec.calls[len(rec.calls)-3:]
	if tail[0] != "fault" || tail[1] != "evicted" || tail[2] != "mapped" {
		t.Fatalf("callback order = %v", tail)
	}
}

func TestWalkHitForwarding(t *testing.T) {
	eng := sim.NewEngine()
	h := hir.New(hir.DefaultEntries, addrspace.DefaultGeometry())
	lru := policy.NewLRU()
	d := New(testConfig(), eng, 4, lru, h, nil)
	fault(d, 1, 0, func() {})
	eng.Run()
	d.RecordWalkHit(1, 5)
	if h.Touched() != 1 {
		t.Fatal("walk hit not recorded in HIR")
	}
	// LRU also saw the hit (ideal feed): page 1 was refreshed. Map another
	// page and check the victim is still 1 only if the hit did not refresh —
	// it did refresh, so after adding page 2, victim should still be 1
	// (chain: 1 hit-refreshed then 2 mapped → LRU order 1,2). Refresh makes
	// 1 MRU before 2 arrives; order stays 1 then 2, victim 1 either way, so
	// probe differently: map 2, hit 1, victim must be 2.
	fault(d, 2, 1, func() {})
	eng.Run()
	d.RecordWalkHit(1, 6)
	if v := lru.SelectVictim(); v != 2 {
		t.Fatalf("victim = %v, want 2 (page 1 refreshed by walk hit)", v)
	}
}

func TestHIRDrainEveryNthFault(t *testing.T) {
	cfg := testConfig()
	cfg.TransferInterval = 2
	eng := sim.NewEngine()
	h := hir.New(hir.DefaultEntries, addrspace.DefaultGeometry())
	d := New(cfg, eng, 64, policy.NewLRU(), h, nil)
	fault(d, 1, 0, func() {})
	eng.Run()
	d.RecordWalkHit(1, 1)
	if h.Touched() != 1 {
		t.Fatal("hit not pending")
	}
	fault(d, 2, 2, func() {}) // 2nd serviced fault → drain
	eng.Run()
	if h.Touched() != 0 {
		t.Fatal("HIR not drained on 2nd fault")
	}
	st := d.Stats()
	if st.HIRTransferBytes == 0 || st.HIRTransferCycles == 0 {
		t.Fatalf("transfer not charged: %+v", st)
	}
}

// batchSink is an LRU that also consumes HIR drains, logging when each
// batch lands.
type batchSink struct {
	*policy.LRU
	eng     *sim.Engine
	at      []sim.Cycle
	batches [][]hir.Record
}

func (b *batchSink) OnHitBatch(recs []hir.Record) {
	b.at = append(b.at, b.eng.Now())
	b.batches = append(b.batches, recs)
}

// TestHIRDrainDeliveryTiming pins when a drain lands: the sink receives the
// drained batch exactly HIRTransferCycles after the draining fault
// completes, and the transfer holds the channel, so the next queued fault
// starts service no earlier than that cycle.
func TestHIRDrainDeliveryTiming(t *testing.T) {
	cfg := testConfig()
	cfg.TransferInterval = 2
	eng := sim.NewEngine()
	sink := &batchSink{LRU: policy.NewLRU(), eng: eng}
	d := New(cfg, eng, 64, sink, hir.New(hir.DefaultEntries, addrspace.DefaultGeometry()), nil)
	fault(d, 1, 0, func() {})
	eng.Run()
	d.RecordWalkHit(1, 1)

	var drained, next sim.Cycle
	fault(d, 2, 2, func() { drained = eng.Now() }) // 2nd serviced fault → drain
	fault(d, 3, 3, func() { next = eng.Now() })    // queued behind the drain
	eng.Run()

	transfer := d.Stats().HIRTransferCycles
	if transfer == 0 {
		t.Fatal("drain charged no transfer cycles")
	}
	if len(sink.at) != 1 {
		t.Fatalf("sink received %d batches, want 1", len(sink.at))
	}
	if want := drained + transfer; sink.at[0] != want {
		t.Fatalf("batch landed at %d, want %d (fault done %d + transfer %d)",
			sink.at[0], want, drained, transfer)
	}
	if recs := sink.batches[0]; len(recs) != 1 || recs[0].Set != addrspace.DefaultGeometry().SetOf(1) {
		t.Fatalf("batch = %+v, want the one record of page 1's set", recs)
	}
	if want := sink.at[0] + cfg.FaultLatency; next != want {
		t.Fatalf("next fault completed at %d, want %d (service starts when the batch lands)",
			next, want)
	}
}

func TestQueueDepthTracking(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 16, policy.NewLRU(), nil, nil)
	for i := 0; i < 10; i++ {
		fault(d, addrspace.PageID(i), i, func() {})
	}
	// The first fault went straight into service; nine wait.
	if d.Pending() != 9 {
		t.Fatalf("pending = %d, want 9", d.Pending())
	}
	eng.Run()
	if d.Stats().MaxQueueDepth != 9 {
		t.Fatalf("max depth = %d, want 9", d.Stats().MaxQueueDepth)
	}
	if d.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestChannelsOverlapFaultService(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 4
	eng := sim.NewEngine()
	d := New(cfg, eng, 16, policy.NewLRU(), nil, nil)
	var times []sim.Cycle
	for i := 0; i < 8; i++ {
		fault(d, addrspace.PageID(i), i, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	// Two waves of four: completions at 100 (×4) and 200 (×4).
	want := []sim.Cycle{100, 100, 100, 100, 200, 200, 200, 200}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completion times %v, want %v", times, want)
		}
	}
	if d.Stats().FaultsServiced != 8 {
		t.Fatalf("serviced = %d", d.Stats().FaultsServiced)
	}
}

func TestZeroChannelsDefaultsToOne(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 0
	eng := sim.NewEngine()
	d := New(cfg, eng, 4, policy.NewLRU(), nil, nil)
	var times []sim.Cycle
	for i := 0; i < 2; i++ {
		fault(d, addrspace.PageID(i), i, func() { times = append(times, eng.Now()) })
	}
	eng.Run()
	if times[0] != 100 || times[1] != 200 {
		t.Fatalf("completion times %v, want serial [100 200]", times)
	}
}

func TestBusyCyclesAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 16, policy.NewLRU(), nil, nil)
	for i := 0; i < 4; i++ {
		fault(d, addrspace.PageID(i), i, func() {})
	}
	eng.Run()
	// 4 faults × 100 cycles × the default 0.35 host-busy fraction.
	if got := d.Stats().BusyCycles; got != 140 {
		t.Fatalf("busy cycles = %d, want 140", got)
	}
}

func TestZeroFaultLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero fault latency accepted")
		}
	}()
	New(Config{}, sim.NewEngine(), 1, policy.NewLRU(), nil, nil)
}

func TestPrefetchMigratesBlockNeighbours(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	d := New(cfg, eng, 64, policy.NewLRU(), nil, nil)
	fault(d, 32, 0, func() {}) // block 32..47
	eng.Run()
	for p := addrspace.PageID(32); p < 48; p++ {
		if !d.Resident(p) {
			t.Fatalf("page %v not prefetched", p)
		}
	}
	st := d.Stats()
	if st.FaultsServiced != 1 || st.Prefetched != 15 {
		t.Fatalf("faults=%d prefetched=%d, want 1/15", st.FaultsServiced, st.Prefetched)
	}
	// A subsequent touch of a prefetched page is not a fault.
	woken := false
	fault(d, 33, 1, func() { woken = true })
	if !woken || d.Stats().FaultsServiced != 1 {
		t.Fatal("prefetched page refaulted")
	}
}

func TestPrefetchEvictsWhenFull(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	d := New(cfg, eng, 8, policy.NewLRU(), nil, nil)
	fault(d, 0, 0, func() {})
	eng.Run()
	if !d.Full() {
		t.Fatal("memory not full after the prefetch, want all 8 frames resident")
	}
	st := d.Stats()
	// 1 fault + 7 prefetches fill memory; the remaining 8 block pages each
	// evict one of the earlier arrivals.
	if st.Prefetched != 15 {
		t.Fatalf("prefetched = %d, want 15", st.Prefetched)
	}
	if st.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", st.Evictions)
	}
}

func TestPrefetchSkipsPendingFaults(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	d := New(cfg, eng, 64, policy.NewLRU(), nil, nil)
	woken := 0
	fault(d, 0, 0, func() { woken++ })
	fault(d, 1, 1, func() { woken++ }) // queued behind page 0
	eng.Run()
	if woken != 2 {
		t.Fatalf("woken = %d, want both faults resolved", woken)
	}
	st := d.Stats()
	// Page 1 had its own fault in flight, so page 0's prefetch skipped it:
	// 2 serviced faults, 14 prefetched pages.
	if st.FaultsServiced != 2 || st.Prefetched != 14 {
		t.Fatalf("faults=%d prefetched=%d, want 2/14", st.FaultsServiced, st.Prefetched)
	}
}

// strayVictimPolicy is LRU except that SelectVictim names a page that was
// never mapped, breaking the Policy contract.
type strayVictimPolicy struct{ *policy.LRU }

func (strayVictimPolicy) SelectVictim() addrspace.PageID { return 999 }

// TestBadVictimPanics checks that both eviction sites, fault completion and
// block prefetch, reject a non-resident victim instead of skipping the page.
func TestBadVictimPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		frames   int
		prefetch int
	}{
		// One frame: page 0 fills it, so page 1's completion must evict.
		{"complete", 1, 0},
		// Two frames: the fault maps page 0 and the prefetch page 1 without
		// evicting, so the first eviction, for page 2, happens in prefetch.
		{"prefetch", 2, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.PrefetchPages = tc.prefetch
			eng := sim.NewEngine()
			d := New(cfg, eng, tc.frames, strayVictimPolicy{policy.NewLRU()}, nil, nil)
			fault(d, 0, 0, func() {})
			fault(d, 1, 1, func() {})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("a non-resident victim was accepted")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "bad victim") {
					t.Fatalf("panic = %q, want the bad-victim contract violation", msg)
				}
			}()
			eng.Run()
		})
	}
}

// TestEvictNotResident checks that evicting a page that is not resident
// panics before any residency state changes: the mapped page stays, memory
// stays full and no eviction is counted.
func TestEvictNotResident(t *testing.T) {
	d := New(testConfig(), sim.NewEngine(), 1, strayVictimPolicy{policy.NewLRU()}, nil, nil)
	d.Prepopulate([]addrspace.PageID{0})
	mustPanic(t, "page not resident", func() { d.evictIfFull(1) })
	if !d.Full() || !d.Resident(0) || d.Resident(999) {
		t.Fatalf("after the rejected eviction: full=%v resident(0)=%v resident(999)=%v", d.Full(), d.Resident(0), d.Resident(999))
	}
	if st := d.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
}

// TestInsertEvictLifecycle follows residency through the driver's one page
// table: pages map on fault completion until memory is full, and the next
// fault evicts the policy's victim into the freed frame.
func TestInsertEvictLifecycle(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 2, policy.NewLRU(), nil, nil)
	if d.Full() || d.Resident(10) {
		t.Fatal("fresh memory is full or has a resident page")
	}
	fault(d, 10, 0, func() {})
	if d.Resident(10) {
		t.Fatal("page resident while its fault is pending")
	}
	fault(d, 20, 1, func() {})
	eng.Run()
	if !d.Full() || !d.Resident(10) || !d.Resident(20) {
		t.Fatalf("after two faults: full=%v resident(10)=%v resident(20)=%v", d.Full(), d.Resident(10), d.Resident(20))
	}
	fault(d, 30, 2, func() {})
	eng.Run()
	if d.Resident(10) || !d.Resident(20) || !d.Resident(30) || !d.Full() {
		t.Fatalf("after the evicting fault: resident(10)=%v resident(20)=%v resident(30)=%v full=%v",
			d.Resident(10), d.Resident(20), d.Resident(30), d.Full())
	}
	if st := d.Stats(); st.FaultsServiced != 3 || st.Evictions != 1 {
		t.Fatalf("serviced=%d evictions=%d, want 3/1", st.FaultsServiced, st.Evictions)
	}
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic = %q, want one containing %q", msg, want)
		}
	}()
	f()
}

func TestDoubleMapPanics(t *testing.T) {
	d := New(testConfig(), sim.NewEngine(), 4, policy.NewLRU(), nil, nil)
	d.Prepopulate([]addrspace.PageID{1})
	mustPanic(t, "double map", func() { d.Prepopulate([]addrspace.PageID{1}) })
}

func TestMapIntoFullPanics(t *testing.T) {
	d := New(testConfig(), sim.NewEngine(), 2, policy.NewLRU(), nil, nil)
	mustPanic(t, "map of page:0x3 into full memory", func() { d.Prepopulate([]addrspace.PageID{1, 2, 3}) })
	if !d.Full() || !d.Resident(1) || !d.Resident(2) {
		t.Fatal("the pages that fit were not mapped")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	mustPanic(t, "must be positive", func() { New(testConfig(), sim.NewEngine(), 0, policy.NewLRU(), nil, nil) })
}

// residencyModel is LRU that keeps a model of device memory from the
// policy callbacks alone: OnMapped adds a page, OnEvicted removes it.
type residencyModel struct {
	*policy.LRU
	resident map[addrspace.PageID]bool
}

func (r *residencyModel) OnMapped(p addrspace.PageID, seq int) {
	r.resident[p] = true
	r.LRU.OnMapped(p, seq)
}

func (r *residencyModel) OnEvicted(p addrspace.PageID) {
	delete(r.resident, p)
	r.LRU.OnEvicted(p)
}

// Property: over any sequence of faults and event steps (fault completions,
// with evictions whenever memory is full, and block prefetches that map
// pages and resolve queued faults), Resident agrees with the model the
// policy callbacks build, the model never exceeds the capacity, Full holds
// exactly at capacity, a pending fault's page is not resident, and a woken
// page is.
func TestFrameConservationProperty(t *testing.T) {
	const capacity, pages = 8, 40
	f := func(prefetch uint8, ops []uint8) bool {
		cfg := testConfig()
		cfg.PrefetchPages = int(prefetch % 4)
		eng := sim.NewEngine()
		model := &residencyModel{LRU: policy.NewLRU(), resident: map[addrspace.PageID]bool{}}
		d := New(cfg, eng, capacity, model, nil, nil)
		pending := map[addrspace.PageID]bool{}
		ok := true
		for _, op := range ops {
			if op%4 == 0 {
				eng.Step()
			} else {
				p := addrspace.PageID(op % pages)
				if !d.Resident(p) {
					pending[p] = true
				}
				fault(d, p, int(op), func() {
					delete(pending, p)
					ok = ok && d.Resident(p)
				})
			}
			if !ok || len(model.resident) > capacity || d.Full() != (len(model.resident) == capacity) {
				return false
			}
			for q := addrspace.PageID(0); q < pages; q++ {
				if d.Resident(q) != model.resident[q] || pending[q] && d.Resident(q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescedFaultWakesOnce checks the Waker contract: however many Fault
// calls coalesce onto one fault, the page is woken once, and the waiters a
// caller keeps resume in arrival order.
func TestCoalescedFaultWakesOnce(t *testing.T) {
	eng := sim.NewEngine()
	d := New(testConfig(), eng, 4, policy.NewLRU(), nil, nil)
	var order []int
	for i := 0; i < 3; i++ {
		fault(d, 7, i, func() { order = append(order, i) })
	}
	eng.Run()
	if w := waker(d); w.wakes != 1 {
		t.Fatalf("page woken %d times for one fault, want 1", w.wakes)
	}
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("waiters resumed in order %v, want arrival order [0 1 2]", order)
	}
	if st := d.Stats(); st.FaultsServiced != 1 || st.Coalesced != 2 {
		t.Fatalf("serviced=%d coalesced=%d, want 1/2", st.FaultsServiced, st.Coalesced)
	}
}

// TestHIRDrainWhenPrefetchCrossesInterval pins the drain to the fault count
// crossing a multiple of TransferInterval: a completion whose block
// prefetch resolves queued faults can carry the count past the multiple
// without landing on it, and the drain is due all the same.
func TestHIRDrainWhenPrefetchCrossesInterval(t *testing.T) {
	cfg := testConfig()
	cfg.TransferInterval = 4
	cfg.PrefetchPages = 15
	eng := sim.NewEngine()
	h := hir.New(hir.DefaultEntries, addrspace.DefaultGeometry())
	sink := &batchSink{LRU: policy.NewLRU(), eng: eng}
	d := New(cfg, eng, 64, sink, h, nil)
	fault(d, 16, 0, func() {}) // serviced 1, prefetching the rest of block 16..31
	eng.Run()
	fault(d, 32, 1, func() {}) // serviced 2
	eng.Run()
	d.RecordWalkHit(16, 2)
	// Page 0 goes into service; pages 1 and 2 of its block queue behind it.
	for p := addrspace.PageID(0); p < 3; p++ {
		fault(d, p, int(p)+3, func() {})
	}
	eng.Run() // serviced 2 → 5: the prefetch resolves 1 and 2 and crosses 4
	st := d.Stats()
	if st.FaultsServiced != 5 || st.Batched != 2 {
		t.Fatalf("serviced=%d batched=%d, want 5/2", st.FaultsServiced, st.Batched)
	}
	if got := h.Stats().Drains; got != 1 {
		t.Fatalf("HIR drained %d times, want 1 when the count crossed 4", got)
	}
	if len(sink.batches) != 1 || len(sink.batches[0]) != 1 || sink.batches[0][0].Set != addrspace.DefaultGeometry().SetOf(16) {
		t.Fatalf("batches = %+v, want the one record of page 16's set", sink.batches)
	}
}
