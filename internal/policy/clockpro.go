package policy

import (
	"fmt"

	"hpe/internal/addrspace"
)

// pageState classifies a CLOCK-Pro list entry.
type pageState uint8

const (
	stateHot pageState = iota
	stateColdResident
	stateColdNonResident // evicted but still in its test period
)

type cpNode struct {
	page       addrspace.PageID
	state      pageState
	ref        bool
	inTest     bool
	prev, next *cpNode
}

// ClockPro implements the CLOCK-Pro replacement algorithm (Jiang, Chen,
// Zhang; USENIX ATC 2005), adapted to UVM page eviction the way the paper
// configures it: the memory allocation for cold pages m_c is fixed at 128
// pages "because this value can alleviate instant thrashing" (§V-B), so the
// original's adaptive m_c tuning is disabled.
//
// All page metadata (resident hot, resident cold, and non-resident cold
// pages in their test period) lives on one circular list; three hands sweep
// it: HAND_cold finds eviction victims, HAND_hot demotes hot pages, and
// HAND_test expires test periods to bound non-resident metadata.
type ClockPro struct {
	capacity int // m: total resident pages
	coldTgt  int // m_c: fixed target for resident cold pages

	index  map[addrspace.PageID]*cpNode
	oldest *cpNode // ring anchor: the oldest entry; .next walks old → new

	handHot  *cpNode
	handCold *cpNode
	handTest *cpNode

	nHot     int
	nColdRes int
	nNonRes  int
}

// DefaultColdTarget is the paper's fixed m_c.
const DefaultColdTarget = 128

// NewClockPro returns a CLOCK-Pro policy for a memory of capacityPages with
// the given fixed cold-page allocation (use DefaultColdTarget for the
// paper's setting). coldTarget is clamped to [1, capacityPages].
func NewClockPro(capacityPages, coldTarget int) *ClockPro {
	if capacityPages <= 0 {
		panic(fmt.Sprintf("policy: ClockPro capacity %d must be positive", capacityPages))
	}
	if coldTarget < 1 {
		coldTarget = 1
	}
	if coldTarget > capacityPages {
		coldTarget = capacityPages
	}
	return &ClockPro{
		capacity: capacityPages,
		coldTgt:  coldTarget,
		index:    make(map[addrspace.PageID]*cpNode),
	}
}

// Name implements Policy.
func (c *ClockPro) Name() string { return "CLOCK-Pro" }

// --- circular list plumbing -------------------------------------------------

// insertNewest links n at the newest position (just before the oldest entry
// in .next order, i.e. the CLOCK list head).
func (c *ClockPro) insertNewest(n *cpNode) {
	if c.oldest == nil {
		n.prev, n.next = n, n
		c.oldest = n
		return
	}
	newest := c.oldest.prev
	n.next = c.oldest
	n.prev = newest
	newest.next = n
	c.oldest.prev = n
}

// unlinkNode removes n from the ring, repointing hands and head past it.
func (c *ClockPro) unlinkNode(n *cpNode) {
	c.repointPast(&c.handHot, n)
	c.repointPast(&c.handCold, n)
	c.repointPast(&c.handTest, n)
	c.repointPast(&c.oldest, n)
	if n.next == n {
		// Last node.
		n.prev, n.next = nil, nil
		return
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

// repointPast moves a hand (or the head) off n before it leaves the ring.
func (c *ClockPro) repointPast(h **cpNode, n *cpNode) {
	if *h != n {
		return
	}
	if n.next == n {
		*h = nil
	} else {
		*h = n.next
	}
}

func (c *ClockPro) removeEntry(n *cpNode) {
	switch n.state {
	case stateHot:
		c.nHot--
	case stateColdResident:
		c.nColdRes--
	case stateColdNonResident:
		c.nNonRes--
	}
	c.unlinkNode(n)
	delete(c.index, n.page)
}

// --- the three hands ---------------------------------------------------------

// runHandTest terminates the test period of the cold page under HAND_test,
// removing non-resident entries, then advances.
func (c *ClockPro) runHandTest() {
	if c.handTest == nil {
		c.handTest = c.oldest
	}
	for sweep := 0; c.handTest != nil && sweep < 2*len(c.index)+2; sweep++ {
		n := c.handTest
		c.handTest = n.next
		if n.state == stateColdNonResident {
			c.removeEntry(n)
			return
		}
		if n.state == stateColdResident && n.inTest {
			n.inTest = false
			return
		}
	}
}

// runHandHot demotes one hot page to cold (clearing referenced hot pages as
// it passes) and expires test periods of cold pages it sweeps over.
func (c *ClockPro) runHandHot() {
	if c.handHot == nil {
		c.handHot = c.oldest
	}
	limit := 2*len(c.index) + 2
	for sweep := 0; c.handHot != nil && sweep < limit; sweep++ {
		n := c.handHot
		c.handHot = n.next
		switch n.state {
		case stateHot:
			if n.ref {
				n.ref = false
				continue
			}
			n.state = stateColdResident
			n.inTest = false
			c.nHot--
			c.nColdRes++
			return
		case stateColdNonResident:
			c.removeEntry(n)
		case stateColdResident:
			if n.inTest {
				n.inTest = false
			}
		}
	}
}

// victimSearch runs HAND_cold until it identifies a resident cold page with
// a clear reference bit, performing promotions and rotations on the way.
// It does not unmap the page — the driver does that and then calls OnEvicted.
func (c *ClockPro) victimSearch() *cpNode {
	// Ensure some resident cold page exists; demote hot pages if not.
	for c.nColdRes == 0 && c.nHot > 0 {
		c.runHandHot()
	}
	if c.handCold == nil {
		c.handCold = c.oldest
	}
	limit := 4*len(c.index) + 4
	for sweep := 0; sweep < limit; sweep++ {
		n := c.handCold
		c.handCold = n.next
		if n.state != stateColdResident {
			continue
		}
		if n.ref {
			if n.inTest {
				// Re-referenced within its test period: promote to hot.
				n.ref = false
				n.inTest = false
				n.state = stateHot
				c.nColdRes--
				c.nHot++
				if c.nHot > c.capacity-c.coldTgt {
					c.runHandHot()
				}
			} else {
				// Re-referenced after test expiry: stay cold, restart test.
				n.ref = false
				n.inTest = true
				c.unlinkNode(n)
				c.insertNewest(n)
			}
			// Promotion may have emptied the cold set.
			for c.nColdRes == 0 && c.nHot > 0 {
				c.runHandHot()
			}
			continue
		}
		return n
	}
	panic("policy: ClockPro victim search did not terminate")
}

// --- Policy interface --------------------------------------------------------

// OnWalkHit implements Policy: set the reference bit.
func (c *ClockPro) OnWalkHit(p addrspace.PageID, seq int) {
	if n, ok := c.index[p]; ok && n.state != stateColdNonResident {
		n.ref = true
	}
}

// OnFault implements Policy (handled in OnMapped).
func (c *ClockPro) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: a fault on a page still in its test period
// proves a short reuse distance — insert it hot; otherwise insert it cold
// and start its test period.
func (c *ClockPro) OnMapped(p addrspace.PageID, seq int) {
	if n, ok := c.index[p]; ok {
		if n.state != stateColdNonResident {
			panic(fmt.Sprintf("policy: ClockPro mapping already-resident %v", p))
		}
		// Short reuse distance: promote.
		c.removeEntry(n)
		//lint:ignore hpelint/hotalloc one node per mapped page; mapping happens on the priced far-fault path
		hot := &cpNode{page: p, state: stateHot}
		c.insertNewest(hot)
		c.index[p] = hot
		c.nHot++
		for c.nHot > c.capacity-c.coldTgt {
			before := c.nHot
			c.runHandHot()
			if c.nHot == before {
				break
			}
		}
		return
	}
	//lint:ignore hpelint/hotalloc one node per mapped page; mapping happens on the priced far-fault path
	n := &cpNode{page: p, state: stateColdResident, inTest: true}
	c.insertNewest(n)
	c.index[p] = n
	c.nColdRes++
	// Bound non-resident metadata at the memory size.
	for c.nNonRes > c.capacity {
		before := c.nNonRes
		c.runHandTest()
		if c.nNonRes == before {
			break
		}
	}
}

// SelectVictim implements Policy.
func (c *ClockPro) SelectVictim() addrspace.PageID {
	if c.nColdRes+c.nHot == 0 {
		panic("policy: ClockPro.SelectVictim with no resident pages")
	}
	return c.victimSearch().page
}

// OnEvicted implements Policy: the page becomes non-resident; if its test
// period is running, keep the metadata so a quick refault promotes it.
func (c *ClockPro) OnEvicted(p addrspace.PageID) {
	n, ok := c.index[p]
	if !ok || n.state == stateColdNonResident {
		return
	}
	if n.state == stateHot {
		// The driver may evict a page the policy would not have chosen (it
		// always honours SelectVictim, so this is defensive).
		c.nHot--
		c.nColdRes++
		n.state = stateColdResident
	}
	if n.inTest {
		n.state = stateColdNonResident
		n.ref = false
		c.nColdRes--
		c.nNonRes++
		return
	}
	c.removeEntry(n)
}

// Counts reports (hot, resident-cold, non-resident) entry counts, for tests.
func (c *ClockPro) Counts() (hot, coldRes, nonRes int) {
	return c.nHot, c.nColdRes, c.nNonRes
}
