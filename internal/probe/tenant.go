package probe

import (
	"hpe/internal/addrspace"
	"hpe/internal/trace"
)

// TenantCount is one tenant's share of a run's demand-paging activity, as
// observed from the probe event stream.
type TenantCount struct {
	// Name is the tenant token from the trace annotation ("HSD", "NWx2").
	Name string
	// Faults counts KindFaultEnd events on the tenant's pages.
	Faults uint64
	// Evictions counts KindEviction events whose victim the tenant owns.
	Evictions uint64
	// CrossEvictions is the subset of Evictions whose triggering fault came
	// from a different tenant — the colocation contention signal.
	CrossEvictions uint64
}

// TenantCounts attributes faults and evictions to the tenant page ranges of
// a colocated workload, purely from the probe event stream — it needs no
// driver support, so it works on any instrumented run (gpu or policy.Replay)
// whose trace carries tenant annotations. It composes with Multi like any
// other probe.
type TenantCounts struct {
	ranges []trace.TenantRange
	counts []TenantCount
}

// NewTenantCounts builds the probe over the trace's tenant ranges.
func NewTenantCounts(tens []trace.TenantRange) *TenantCounts {
	t := &TenantCounts{ranges: tens, counts: make([]TenantCount, len(tens))}
	for i, r := range tens {
		t.counts[i].Name = r.Name
	}
	return t
}

// Emit implements Probe.
func (t *TenantCounts) Emit(ev Event) {
	switch ev.Kind {
	case KindFaultEnd:
		if i := trace.TenantIndex(t.ranges, ev.Page); i >= 0 {
			t.counts[i].Faults++
		}
	case KindEviction:
		vi := trace.TenantIndex(t.ranges, ev.Page)
		if vi < 0 {
			return
		}
		t.counts[vi].Evictions++
		// The eviction event carries the triggering page in A.
		if ti := trace.TenantIndex(t.ranges, addrspace.PageID(ev.A)); ti >= 0 && ti != vi {
			t.counts[vi].CrossEvictions++
		}
	}
}

// Flush implements Probe.
func (t *TenantCounts) Flush() error { return nil }

// Counts returns a copy of the per-tenant counters, in range order.
func (t *TenantCounts) Counts() []TenantCount {
	return append([]TenantCount(nil), t.counts...)
}
