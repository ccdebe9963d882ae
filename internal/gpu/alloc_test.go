package gpu

import (
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/trace"
)

// TestPrepopulatedRunAllocBound pins the hotalloc guarantee over the whole
// gpu+uvm handler path at runtime: with the footprint prepopulated there
// are no demand faults, so the steady-state issue → TLB → walk → complete
// event chain must not allocate per access. Construction (engine, SMs,
// TLBs, pools) is a fixed cost, so the test asserts a small per-access
// bound rather than zero: with 40k accesses, anything that allocates per
// event blows through it immediately, while setup contributes < 0.05.
func TestPrepopulatedRunAllocBound(t *testing.T) {
	const accesses = 40000
	refs := make([]addrspace.PageID, accesses)
	for i := range refs {
		refs[i] = addrspace.PageID(i % 512)
	}
	tr := trace.New("alloc-bound", refs)
	cfg := smallConfig(1024)
	cfg.Prepopulate = true

	total := testing.AllocsPerRun(1, func() {
		res := Run(cfg, tr, policy.NewLRU())
		if res.Faults != 0 {
			t.Fatalf("prepopulated run took %d faults, want 0", res.Faults)
		}
		if res.Accesses != accesses {
			t.Fatalf("completed %d accesses, want %d", res.Accesses, accesses)
		}
	})
	perAccess := total / accesses
	if perAccess > 0.5 {
		t.Errorf("prepopulated run allocated %.0f objects (%.3f per access), want < 0.5 per access",
			total, perAccess)
	}
}

// TestFaultPathAllocBound extends the bound to the demand-paging path, for
// every policy in internal/policy and for HPE: a thrashing run faults on
// most walks.
// Every fault resumes its blocked accesses through the driver's registered
// waker, which follows their waiter chain through the warp slots from the
// page's record, the fault queue reuses its storage, an HIR drain is one
// batch of one-word records, and each policy keeps its per-page state in
// page tables, slabs and value heaps, so once those are warm the fault
// path allocates nothing per fault. Setup and the growth of free lists,
// slabs and heaps amortize over the run's ~13k faults (about 0.015
// allocations per fault; a closure or a node per fault would be 1).
func TestFaultPathAllocBound(t *testing.T) {
	tr := thrashTrace(64, 32) // 1,024 pages swept 32 times
	const capacity = 768      // 75% of the footprint
	cfg := smallConfig(capacity)
	fi := trace.BuildFutureIndex(tr)
	policies := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"lru", func() policy.Policy { return policy.NewLRU() }},
		{"random", func() policy.Policy { return policy.NewRandom(1) }},
		{"rrip", func() policy.Policy { return policy.NewRRIP(policy.DefaultRRIPConfig()) }},
		{"rrip-thrashing", func() policy.Policy { return policy.NewRRIP(policy.ThrashingRRIPConfig()) }},
		{"clockpro", func() policy.Policy { return policy.NewClockPro(capacity, policy.DefaultColdTarget) }},
		{"ideal", func() policy.Policy { return policy.NewIdeal(fi) }},
		{"fifo", func() policy.Policy { return policy.NewFIFO() }},
		{"lfu", func() policy.Policy { return policy.NewLFU() }},
		{"clock", func() policy.Policy { return policy.NewClock() }},
		{"nru", func() policy.Policy { return policy.NewNRU() }},
		{"arc", func() policy.Policy { return policy.NewARC(capacity) }},
		{"setlru", func() policy.Policy { return policy.NewSetLRU(addrspace.DefaultGeometry()) }},
		{"hpe", func() policy.Policy { return hpe.New(hpe.DefaultConfig()) }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			var res Result
			total := testing.AllocsPerRun(1, func() {
				res = Run(cfg, tr, pc.mk())
			})
			if res.Evictions == 0 {
				t.Fatalf("run took %d faults and no evictions; the trace must thrash", res.Faults)
			}
			perFault := total / float64(res.Faults)
			t.Logf("%.0f allocations over %d faults (%.4f per fault)", total, res.Faults, perFault)
			if perFault >= 0.1 {
				t.Errorf("thrashing run allocated %.0f objects over %d faults (%.3f per fault), want < 0.1 per fault",
					total, res.Faults, perFault)
			}
		})
	}
}

// TestRunAllocsIndependentOfWarps requires a run's allocation count not to
// grow with the warp slots in flight: the waiter chains are threaded
// through one slot array allocated with the run, so six times the warps on
// the same thrashing trace may add only the few doublings of the event
// queue that holds their events. Per-walk or per-fault waiter slices would
// add hundreds.
func TestRunAllocsIndependentOfWarps(t *testing.T) {
	tr := thrashTrace(64, 8)
	allocs := func(warps int) float64 {
		cfg := smallConfig(768)
		cfg.SMs, cfg.WarpsPerSM = 15, warps
		return testing.AllocsPerRun(1, func() { Run(cfg, tr, policy.NewLRU()) })
	}
	few, many := allocs(8), allocs(48)
	t.Logf("8 warps per SM: %.0f allocations; 48: %.0f", few, many)
	if many-few > 32 {
		t.Errorf("48 warps per SM allocated %.0f objects, 8 warps %.0f: want a difference of at most 32", many, few)
	}
}

// TestRunAllocsIndependentOfBarriers requires a run's allocation count not
// to grow with the kernel barriers it crosses: slots that reach a barrier
// park on a chain through the warp slots, so a hundred times the barriers
// on the same references may add only a few doublings of the event queue.
func TestRunAllocsIndependentOfBarriers(t *testing.T) {
	refs := thrashTrace(64, 8).Refs
	allocs := func(barriers int) (float64, Result) {
		at := make([]int, barriers)
		for i := range at {
			at[i] = (i + 1) * len(refs) / (barriers + 1)
		}
		tr := trace.NewWithBarriers("barriers", refs, at)
		var res Result
		n := testing.AllocsPerRun(1, func() { res = Run(smallConfig(768), tr, policy.NewLRU()) })
		return n, res
	}
	few, fewRes := allocs(4)
	many, manyRes := allocs(400)
	t.Logf("4 barriers: %.0f allocations; 400: %.0f", few, many)
	if fewRes.BarriersCrossed != 4 || manyRes.BarriersCrossed != 400 {
		t.Fatalf("crossed %d and %d barriers, want 4 and 400", fewRes.BarriersCrossed, manyRes.BarriersCrossed)
	}
	if many-few > 32 {
		t.Errorf("400 barriers allocated %.0f objects, 4 barriers %.0f: want a difference of at most 32", many, few)
	}
}
