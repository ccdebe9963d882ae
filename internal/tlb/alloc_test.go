package tlb

import (
	"testing"

	"hpe/internal/addrspace"
)

// TestLookupFillSteadyStateZeroAlloc pins the hotalloc root tlb.TLB.Lookup
// (and the Fill/Invalidate churn around it) with a runtime measurement:
// every operation scans one set of the array built at construction, so
// hits, misses and replacement fills are all allocation-free. The working
// set is twice the capacity, so the loop exercises eviction and
// invalidation, not just warm hits.
func TestLookupFillSteadyStateZeroAlloc(t *testing.T) {
	tl := New("l1", 64, 4)
	for p := 0; p < 128; p++ {
		tl.Fill(addrspace.PageID(p))
	}

	var p addrspace.PageID
	avg := testing.AllocsPerRun(1000, func() {
		if !tl.Lookup(p%64) && !tl.Lookup(p%128) {
			tl.Fill(p % 128)
		}
		tl.Invalidate((p + 7) % 128)
		p++
	})
	if avg != 0 {
		t.Errorf("Lookup/Fill/Invalidate allocated %.2f objects per access in steady state, want 0", avg)
	}
}
