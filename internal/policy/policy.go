// Package policy defines the eviction-policy contract of the UVM driver and
// implements the paper's comparison policies: LRU, Random, RRIP (with the
// paper's delay-field enhancement), CLOCK-Pro (fixed m_c), and the offline
// "Ideal" policy modelled on Belady's MIN. FIFO, LFU, CLOCK, NRU, ARC and
// SetLRU are included as additional reference points: the paper's related
// work discusses LFU, CLOCK and ARC, and SetLRU is LRU at HPE's page-set
// granularity. Their linked chains are lists over internal/slab's store.
//
// Visibility model (paper §IV-A): an eviction policy lives in the GPU driver
// and observes the page-walk-level reference stream — page faults and, for
// the paper's "ideal model" baselines, page-walk hits in exact reference
// order. References absorbed by the TLBs are invisible to every policy.
package policy

import "hpe/internal/addrspace"

// Policy is the eviction-policy contract. The UVM driver calls the methods
// in this order for each walk-level event:
//
//   - walk hit on resident page  → OnWalkHit
//   - page fault                 → OnFault, then (after any evictions and
//     the page is mapped) OnMapped
//   - eviction                   → SelectVictim, then OnEvicted once the
//     driver has unmapped the page
//
// seq is the canonical trace position of the triggering access; policies
// that don't need it ignore it. Implementations are single-goroutine (the
// driver serialises faults) and must not retain the slices they are passed.
type Policy interface {
	// Name identifies the policy in reports ("LRU", "RRIP", ...).
	Name() string
	// OnWalkHit records a page-walk hit on a resident page.
	OnWalkHit(p addrspace.PageID, seq int)
	// OnFault records a page fault on a non-resident page.
	OnFault(p addrspace.PageID, seq int)
	// OnMapped tells the policy the faulted page is now resident.
	OnMapped(p addrspace.PageID, seq int)
	// SelectVictim returns a currently-resident page to evict. It is called
	// only when at least one page is resident.
	SelectVictim() addrspace.PageID
	// OnEvicted tells the policy the page has been unmapped.
	OnEvicted(p addrspace.PageID)
}
