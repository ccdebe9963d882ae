package policy

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
)

// pageState classifies a CLOCK-Pro list entry.
type pageState uint8

const (
	stateHot pageState = iota
	stateColdResident
	stateColdNonResident // evicted but still in its test period
)

// cpNode is one entry of the CLOCK-Pro ring, linked by slab index.
type cpNode struct {
	page       addrspace.PageID
	state      pageState
	ref        bool
	inTest     bool
	prev, next int32
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
//
// The ring's nodes live in one slab (freed nodes are reused) and a page
// table maps each page to its node; links and hands are slab indices, with
// nilNode for none.
type ClockPro struct {
	capacity int // m: total resident pages
	coldTgt  int // m_c: fixed target for resident cold pages

	nodes    []cpNode
	freeNode int32                   // free nodes, linked through next
	index    *pagetable.Table[int32] // page → node
	oldest   int32                   // ring anchor: the oldest entry; .next walks old → new

	handHot  int32
	handCold int32
	handTest int32

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
		freeNode: nilNode,
		index:    pagetable.New[int32](),
		oldest:   nilNode,
		handHot:  nilNode,
		handCold: nilNode,
		handTest: nilNode,
	}
}

// Name implements Policy.
func (c *ClockPro) Name() string { return "CLOCK-Pro" }

// --- circular list plumbing -------------------------------------------------

// newNode allocates an unlinked node for p, indexed by the page table.
func (c *ClockPro) newNode(p addrspace.PageID, state pageState, inTest bool) int32 {
	n := cpNode{page: p, state: state, inTest: inTest, prev: nilNode, next: nilNode}
	i := c.freeNode
	if i != nilNode {
		c.freeNode = c.nodes[i].next
		c.nodes[i] = n
	} else {
		c.nodes = append(c.nodes, n)
		i = int32(len(c.nodes) - 1)
	}
	c.index.Put(p, i)
	return i
}

// insertNewest links n at the newest position (just before the oldest entry
// in .next order, i.e. the CLOCK list head).
func (c *ClockPro) insertNewest(n int32) {
	nd := &c.nodes[n]
	if c.oldest == nilNode {
		nd.prev, nd.next = n, n
		c.oldest = n
		return
	}
	newest := c.nodes[c.oldest].prev
	nd.next = c.oldest
	nd.prev = newest
	c.nodes[newest].next = n
	c.nodes[c.oldest].prev = n
}

// unlinkNode removes n from the ring, repointing hands and head past it.
func (c *ClockPro) unlinkNode(n int32) {
	c.repointPast(&c.handHot, n)
	c.repointPast(&c.handCold, n)
	c.repointPast(&c.handTest, n)
	c.repointPast(&c.oldest, n)
	nd := &c.nodes[n]
	if nd.next != n {
		c.nodes[nd.prev].next = nd.next
		c.nodes[nd.next].prev = nd.prev
	}
	nd.prev, nd.next = nilNode, nilNode
}

// repointPast moves a hand (or the head) off n before it leaves the ring.
func (c *ClockPro) repointPast(h *int32, n int32) {
	if *h != n {
		return
	}
	if next := c.nodes[n].next; next == n {
		*h = nilNode
	} else {
		*h = next
	}
}

// removeEntry unlinks n, drops its page from the index and frees the node.
func (c *ClockPro) removeEntry(n int32) {
	nd := &c.nodes[n]
	switch nd.state {
	case stateHot:
		c.nHot--
	case stateColdResident:
		c.nColdRes--
	case stateColdNonResident:
		c.nNonRes--
	}
	c.unlinkNode(n)
	c.index.Delete(nd.page)
	nd.next = c.freeNode
	c.freeNode = n
}

// --- the three hands ---------------------------------------------------------

// runHandTest terminates the test period of the cold page under HAND_test,
// removing non-resident entries, then advances.
func (c *ClockPro) runHandTest() {
	if c.handTest == nilNode {
		c.handTest = c.oldest
	}
	for sweep := 0; c.handTest != nilNode && sweep < 2*c.index.Len()+2; sweep++ {
		n := c.handTest
		nd := &c.nodes[n]
		c.handTest = nd.next
		if nd.state == stateColdNonResident {
			c.removeEntry(n)
			return
		}
		if nd.state == stateColdResident && nd.inTest {
			nd.inTest = false
			return
		}
	}
}

// runHandHot demotes one hot page to cold (clearing referenced hot pages as
// it passes) and expires test periods of cold pages it sweeps over.
func (c *ClockPro) runHandHot() {
	if c.handHot == nilNode {
		c.handHot = c.oldest
	}
	limit := 2*c.index.Len() + 2
	for sweep := 0; c.handHot != nilNode && sweep < limit; sweep++ {
		n := c.handHot
		nd := &c.nodes[n]
		c.handHot = nd.next
		switch nd.state {
		case stateHot:
			if nd.ref {
				nd.ref = false
				continue
			}
			nd.state = stateColdResident
			nd.inTest = false
			c.nHot--
			c.nColdRes++
			return
		case stateColdNonResident:
			c.removeEntry(n)
		case stateColdResident:
			if nd.inTest {
				nd.inTest = false
			}
		}
	}
}

// victimSearch runs HAND_cold until it identifies a resident cold page with
// a clear reference bit, performing promotions and rotations on the way.
// It does not unmap the page — the driver does that and then calls OnEvicted.
func (c *ClockPro) victimSearch() int32 {
	// Ensure some resident cold page exists; demote hot pages if not.
	for c.nColdRes == 0 && c.nHot > 0 {
		c.runHandHot()
	}
	if c.handCold == nilNode {
		c.handCold = c.oldest
	}
	limit := 4*c.index.Len() + 4
	for sweep := 0; sweep < limit; sweep++ {
		n := c.handCold
		nd := &c.nodes[n]
		c.handCold = nd.next
		if nd.state != stateColdResident {
			continue
		}
		if nd.ref {
			if nd.inTest {
				// Re-referenced within its test period: promote to hot.
				nd.ref = false
				nd.inTest = false
				nd.state = stateHot
				c.nColdRes--
				c.nHot++
				if c.nHot > c.capacity-c.coldTgt {
					c.runHandHot()
				}
			} else {
				// Re-referenced after test expiry: stay cold, restart test.
				nd.ref = false
				nd.inTest = true
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
	if n, ok := c.index.Get(p); ok && c.nodes[n].state != stateColdNonResident {
		c.nodes[n].ref = true
	}
}

// OnFault implements Policy (handled in OnMapped).
func (c *ClockPro) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: a fault on a page still in its test period
// proves a short reuse distance — insert it hot; otherwise insert it cold
// and start its test period.
func (c *ClockPro) OnMapped(p addrspace.PageID, seq int) {
	if n, ok := c.index.Get(p); ok {
		if c.nodes[n].state != stateColdNonResident {
			panic(fmt.Sprintf("policy: ClockPro mapping already-resident %v", p))
		}
		// Short reuse distance: promote.
		c.removeEntry(n)
		c.insertNewest(c.newNode(p, stateHot, false))
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
	c.insertNewest(c.newNode(p, stateColdResident, true))
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
	return c.nodes[c.victimSearch()].page
}

// OnEvicted implements Policy: the page becomes non-resident; if its test
// period is running, keep the metadata so a quick refault promotes it.
func (c *ClockPro) OnEvicted(p addrspace.PageID) {
	i, ok := c.index.Get(p)
	if !ok || c.nodes[i].state == stateColdNonResident {
		return
	}
	n := &c.nodes[i]
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
	c.removeEntry(i)
}

// Counts reports (hot, resident-cold, non-resident) entry counts, for tests.
func (c *ClockPro) Counts() (hot, coldRes, nonRes int) {
	return c.nHot, c.nColdRes, c.nNonRes
}
