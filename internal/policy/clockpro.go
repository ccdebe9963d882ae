package policy

import (
	"fmt"

	"hpe/internal/addrspace"
	"hpe/internal/pagetable"
	"hpe/internal/slab"
)

// pageState classifies a CLOCK-Pro list entry.
type pageState uint8

const (
	stateHot pageState = iota
	stateColdResident
	stateColdNonResident // evicted but still in its test period
)

// cpNode is one entry of the CLOCK-Pro ring.
type cpNode struct {
	page   addrspace.PageID
	state  pageState
	ref    bool
	inTest bool
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
// The ring is a slab list from the oldest entry (head) to the newest
// (tail), and the hands wrap from its tail to its head; a page table maps
// each page to its node. Hands are node indices, with slab.Nil for none.
type ClockPro struct {
	capacity int // m: total resident pages
	coldTgt  int // m_c: fixed target for resident cold pages

	nodes slab.Store[cpNode]
	ring  slab.List
	index *pagetable.Table[int32] // page → node

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
	return &ClockPro{capacity: capacityPages, coldTgt: coldTarget, index: pagetable.New[int32]()}
}

// Name implements Policy.
func (c *ClockPro) Name() string { return "CLOCK-Pro" }

// --- circular list plumbing -------------------------------------------------

// insertNewest adds p at the newest position (the ring's tail).
func (c *ClockPro) insertNewest(p addrspace.PageID, state pageState, inTest bool) {
	n := c.nodes.Alloc(cpNode{page: p, state: state, inTest: inTest})
	c.index.Put(p, n)
	c.nodes.PushBack(&c.ring, n)
}

// next returns the entry after n, wrapping from the newest to the oldest.
func (c *ClockPro) next(n int32) int32 {
	if nx := c.nodes.Next(n); nx != slab.Nil {
		return nx
	}
	return c.ring.Head()
}

// repointHands moves every hand off n before n leaves the ring.
func (c *ClockPro) repointHands(n int32) {
	for _, h := range [...]*int32{&c.handHot, &c.handCold, &c.handTest} {
		if *h != n {
			continue
		}
		if *h = c.next(n); *h == n {
			*h = slab.Nil
		}
	}
}

// removeEntry takes n off the ring, drops its page from the index and frees
// the node.
func (c *ClockPro) removeEntry(n int32) {
	nd := c.nodes.At(n)
	switch nd.state {
	case stateHot:
		c.nHot--
	case stateColdResident:
		c.nColdRes--
	case stateColdNonResident:
		c.nNonRes--
	}
	c.repointHands(n)
	c.index.Delete(nd.page)
	c.nodes.Remove(&c.ring, n)
}

// --- the three hands ---------------------------------------------------------

// runHandTest terminates the test period of the cold page under HAND_test,
// removing non-resident entries, then advances.
func (c *ClockPro) runHandTest() {
	if c.handTest == slab.Nil {
		c.handTest = c.ring.Head()
	}
	for sweep := 0; c.handTest != slab.Nil && sweep < 2*c.ring.Len()+2; sweep++ {
		n := c.handTest
		nd := c.nodes.At(n)
		c.handTest = c.next(n)
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
	if c.handHot == slab.Nil {
		c.handHot = c.ring.Head()
	}
	limit := 2*c.ring.Len() + 2
	for sweep := 0; c.handHot != slab.Nil && sweep < limit; sweep++ {
		n := c.handHot
		nd := c.nodes.At(n)
		c.handHot = c.next(n)
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
	if c.handCold == slab.Nil {
		c.handCold = c.ring.Head()
	}
	limit := 4*c.ring.Len() + 4
	for sweep := 0; sweep < limit; sweep++ {
		n := c.handCold
		nd := c.nodes.At(n)
		c.handCold = c.next(n)
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
				c.repointHands(n)
				c.nodes.Unlink(&c.ring, n)
				c.nodes.PushBack(&c.ring, n)
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
	if n, _ := c.index.Get(p); n != slab.Nil && c.nodes.At(n).state != stateColdNonResident {
		c.nodes.At(n).ref = true
	}
}

// OnFault implements Policy (handled in OnMapped).
func (c *ClockPro) OnFault(p addrspace.PageID, seq int) {}

// OnMapped implements Policy: a fault on a page still in its test period
// proves a short reuse distance — insert it hot; otherwise insert it cold
// and start its test period.
func (c *ClockPro) OnMapped(p addrspace.PageID, seq int) {
	if n, _ := c.index.Get(p); n != slab.Nil {
		if c.nodes.At(n).state != stateColdNonResident {
			panic(fmt.Sprintf("policy: ClockPro mapping already-resident %v", p))
		}
		// Short reuse distance: promote.
		c.removeEntry(n)
		c.insertNewest(p, stateHot, false)
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
	c.insertNewest(p, stateColdResident, true)
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
	return c.nodes.At(c.victimSearch()).page
}

// OnEvicted implements Policy: the page becomes non-resident; if its test
// period is running, keep the metadata so a quick refault promotes it.
func (c *ClockPro) OnEvicted(p addrspace.PageID) {
	i, _ := c.index.Get(p)
	if i == slab.Nil || c.nodes.At(i).state == stateColdNonResident {
		return
	}
	n := c.nodes.At(i)
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
