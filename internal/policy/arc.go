package policy

import (
	"fmt"

	"hpe/internal/addrspace"
)

// ARC implements the Adaptive Replacement Cache (Megiddo & Modha, FAST '03),
// which the paper's related-work section cites as an influential self-tuning
// policy (CAR and CLOCK-Pro both build on its ideas). Four lists: T1 holds
// pages seen once recently, T2 pages seen at least twice; B1/B2 are their
// ghost extensions (metadata of recently evicted pages). A hit in a ghost
// list adapts the target size p of T1.
//
// Adaptation to the UVM driver contract: the driver evicts exactly one page
// per fault (SelectVictim → OnEvicted), and maps the faulting page afterward
// (OnMapped). ARC's REPLACE decision is computed in SelectVictim from the
// ghost status of the pending fault, recorded in OnFault.
type ARC struct {
	capacity int
	p        int // target size of T1

	t1, t2, b1, b2 *recencyList

	// pending describes the fault being serviced: whether the page hit a
	// ghost list (and which), so that REPLACE and the final insertion behave
	// per the ARC pseudocode.
	pendingPage addrspace.PageID
	pendingList int // 0 = cold miss, 1 = B1 hit, 2 = B2 hit
}

// NewARC returns an ARC policy for a memory of capacityPages.
func NewARC(capacityPages int) *ARC {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("policy: ARC capacity %d must be positive", capacityPages))
	}
	return &ARC{
		capacity: capacityPages,
		t1:       newRecencyList(),
		t2:       newRecencyList(),
		b1:       newRecencyList(),
		b2:       newRecencyList(),
	}
}

// Name implements Policy.
func (a *ARC) Name() string { return "ARC" }

// OnWalkHit implements Policy: a resident hit promotes the page to T2 MRU.
func (a *ARC) OnWalkHit(p addrspace.PageID, seq int) {
	if a.t1.remove(p) || a.t2.remove(p) {
		a.t2.pushMRU(p)
	}
}

// OnFault implements Policy: record ghost status and adapt p.
func (a *ARC) OnFault(p addrspace.PageID, seq int) {
	a.pendingPage = p
	switch {
	case a.b1.contains(p):
		a.pendingList = 1
		delta := 1
		if a.b1.len() > 0 && a.b2.len() > a.b1.len() {
			delta = a.b2.len() / a.b1.len()
		}
		a.p = min(a.capacity, a.p+delta)
	case a.b2.contains(p):
		a.pendingList = 2
		delta := 1
		if a.b2.len() > 0 && a.b1.len() > a.b2.len() {
			delta = a.b1.len() / a.b2.len()
		}
		a.p = max(0, a.p-delta)
	default:
		a.pendingList = 0
	}
}

// SelectVictim implements Policy: ARC's REPLACE — evict from T1 when it
// exceeds its target (or exactly meets it on a B2 hit), otherwise from T2.
func (a *ARC) SelectVictim() addrspace.PageID {
	t1Len := a.t1.len()
	useT1 := t1Len > 0 && (t1Len > a.p || (a.pendingList == 2 && t1Len == a.p))
	if useT1 {
		v, _ := a.t1.lru()
		return v
	}
	if v, ok := a.t2.lru(); ok {
		return v
	}
	if v, ok := a.t1.lru(); ok {
		return v
	}
	panic("policy: ARC.SelectVictim with no resident pages")
}

// OnEvicted implements Policy: the page's metadata moves to the matching
// ghost list.
func (a *ARC) OnEvicted(p addrspace.PageID) {
	if a.t1.remove(p) {
		a.b1.pushMRU(p)
	} else if a.t2.remove(p) {
		a.b2.pushMRU(p)
	}
	a.trimGhosts()
}

// OnMapped implements Policy: complete the insertion — ghost hits go to T2,
// cold misses to T1 — and drop the page's ghost entry.
func (a *ARC) OnMapped(p addrspace.PageID, seq int) {
	list := 0
	if p == a.pendingPage {
		list = a.pendingList
	} else if a.b1.contains(p) {
		list = 1
	} else if a.b2.contains(p) {
		list = 2
	}
	a.b1.remove(p)
	a.b2.remove(p)
	if list != 0 {
		a.t2.pushMRU(p)
	} else {
		a.t1.pushMRU(p)
	}
	a.trimGhosts()
}

// trimGhosts enforces ARC's directory bounds: |T1|+|B1| ≤ c and the whole
// directory ≤ 2c.
func (a *ARC) trimGhosts() {
	for a.t1.len()+a.b1.len() > a.capacity && a.b1.len() > 0 {
		if v, ok := a.b1.lru(); ok {
			a.b1.remove(v)
		}
	}
	for a.t1.len()+a.t2.len()+a.b1.len()+a.b2.len() > 2*a.capacity && a.b2.len() > 0 {
		if v, ok := a.b2.lru(); ok {
			a.b2.remove(v)
		}
	}
}

// Sizes reports (|T1|, |T2|, |B1|, |B2|, p) for tests and diagnostics.
func (a *ARC) Sizes() (t1, t2, b1, b2, p int) {
	return a.t1.len(), a.t2.len(), a.b1.len(), a.b2.len(), a.p
}
